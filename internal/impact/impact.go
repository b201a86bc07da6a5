// Package impact quantifies how a schedule change affects students'
// learning paths. Class schedules are the paper's volatile input —
// "class schedules determine which courses are offered at certain
// periods... future class schedules are not known" (§1) — and when a
// registrar revises one (a course moved, cancelled, or added), advisors
// need to know whose plans break and how much of the path space
// disappears. Compare diffs two catalog versions, recomputes the goal
// path space under both, and replays existing plans against the revision.
package impact

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/explore"
	"repro/internal/status"
	"repro/internal/term"
	"repro/internal/transcript"
)

// CourseChange describes one course's schedule delta between versions.
type CourseChange struct {
	Course string
	// Added and Removed are offering term labels present in only one
	// version.
	Added, Removed []string
	// PrereqChanged reports a prerequisite-condition change.
	PrereqChanged bool
	// New and Dropped flag courses present in only one version.
	New, Dropped bool
}

// Report is a full schedule-change impact analysis.
type Report struct {
	// Changes lists per-course deltas, course order.
	Changes []CourseChange
	// OldPaths and NewPaths count goal paths before and after the change
	// for the analysed student window.
	OldPaths, NewPaths int64
	// OldGoalPaths and NewGoalPaths count the goal-reaching subset.
	OldGoalPaths, NewGoalPaths int64
	// BrokenPlans lists plans (by student label) that were valid against
	// the old catalog but violate the new one, with the violation.
	BrokenPlans []BrokenPlan
	// StillReachable reports whether the goal remains reachable at all in
	// the new catalog for the analysed student.
	StillReachable bool
}

// BrokenPlan is one previously-valid plan the revision invalidates.
type BrokenPlan struct {
	Student string
	Reason  string
}

// Analysis configures Compare.
type Analysis struct {
	// Start and End bound the student window; Completed seeds the status.
	Start, End term.Term
	Completed  []string
	MaxPerTerm int
	// Goal names the degree goal; it is constructed per catalog version
	// by the Goal factory so compiled conditions match each version's
	// indexes.
	Goal func(cat *catalog.Catalog) (degree.Goal, error)
	// Plans are existing student plans to replay against the revision.
	Plans []transcript.Transcript
}

// Diff computes the per-course schedule and prerequisite deltas between
// two catalog versions.
func Diff(oldCat, newCat *catalog.Catalog) []CourseChange {
	var changes []CourseChange
	seen := map[string]bool{}
	for i := 0; i < oldCat.Len(); i++ {
		id := oldCat.ID(i)
		seen[id] = true
		ni, ok := newCat.Index(id)
		if !ok {
			changes = append(changes, CourseChange{Course: id, Dropped: true})
			continue
		}
		oldCourse, newCourse := oldCat.Course(i), newCat.Course(ni)
		change := CourseChange{Course: id}
		oldTerms := map[string]bool{}
		for _, t := range oldCourse.Offered {
			oldTerms[t.Label()] = true
		}
		newTerms := map[string]bool{}
		for _, t := range newCourse.Offered {
			newTerms[t.Label()] = true
			if !oldTerms[t.Label()] {
				change.Added = append(change.Added, t.Label())
			}
		}
		for _, t := range oldCourse.Offered {
			if !newTerms[t.Label()] {
				change.Removed = append(change.Removed, t.Label())
			}
		}
		change.PrereqChanged = oldCourse.Prereq.String() != newCourse.Prereq.String()
		if len(change.Added) > 0 || len(change.Removed) > 0 || change.PrereqChanged {
			changes = append(changes, change)
		}
	}
	for i := 0; i < newCat.Len(); i++ {
		if id := newCat.ID(i); !seen[id] {
			changes = append(changes, CourseChange{Course: id, New: true})
		}
	}
	sort.Slice(changes, func(i, j int) bool { return changes[i].Course < changes[j].Course })
	return changes
}

// Compare runs the full analysis.
func Compare(oldCat, newCat *catalog.Catalog, a Analysis) (Report, error) {
	if oldCat == nil || newCat == nil {
		return Report{}, fmt.Errorf("impact: nil catalog")
	}
	if a.Goal == nil {
		return Report{}, fmt.Errorf("impact: Analysis.Goal factory is required")
	}
	rep := Report{Changes: Diff(oldCat, newCat)}
	count := func(cat *catalog.Catalog) (explore.Result, error) {
		goal, err := a.Goal(cat)
		if err != nil {
			return explore.Result{}, err
		}
		x, err := cat.SetOf(a.Completed...)
		if err != nil {
			return explore.Result{}, err
		}
		opt := explore.Options{MaxPerTerm: a.MaxPerTerm, Substrate: explore.SubstrateDAG}
		return explore.GoalCount(cat, status.New(cat, a.Start, x), a.End, goal,
			explore.PaperPruners(cat, goal, a.MaxPerTerm), opt)
	}
	oldRes, err := count(oldCat)
	if err != nil {
		return rep, fmt.Errorf("impact: old catalog: %v", err)
	}
	newRes, err := count(newCat)
	if err != nil {
		return rep, fmt.Errorf("impact: new catalog: %v", err)
	}
	rep.OldPaths, rep.OldGoalPaths = oldRes.Paths, oldRes.GoalPaths
	rep.NewPaths, rep.NewGoalPaths = newRes.Paths, newRes.GoalPaths
	rep.StillReachable = newRes.GoalPaths > 0

	for _, plan := range a.Plans {
		if _, err := transcript.Replay(oldCat, plan, a.MaxPerTerm); err != nil {
			continue // was never valid; not the revision's fault
		}
		if _, err := transcript.Replay(newCat, plan, a.MaxPerTerm); err != nil {
			rep.BrokenPlans = append(rep.BrokenPlans, BrokenPlan{
				Student: plan.Student,
				Reason:  err.Error(),
			})
		}
	}
	return rep, nil
}

// Write renders the report for advisors.
func Write(w io.Writer, rep Report) error {
	if len(rep.Changes) == 0 {
		if _, err := fmt.Fprintln(w, "no schedule changes"); err != nil {
			return err
		}
	}
	for _, c := range rep.Changes {
		switch {
		case c.New:
			fmt.Fprintf(w, "+ %s (new course)\n", c.Course)
		case c.Dropped:
			fmt.Fprintf(w, "- %s (dropped)\n", c.Course)
		default:
			var parts []string
			if len(c.Added) > 0 {
				parts = append(parts, "now also "+strings.Join(c.Added, ", "))
			}
			if len(c.Removed) > 0 {
				parts = append(parts, "no longer "+strings.Join(c.Removed, ", "))
			}
			if c.PrereqChanged {
				parts = append(parts, "prerequisites changed")
			}
			fmt.Fprintf(w, "~ %s: %s\n", c.Course, strings.Join(parts, "; "))
		}
	}
	fmt.Fprintf(w, "goal paths: %d → %d (%+d)\n", rep.OldGoalPaths, rep.NewGoalPaths,
		rep.NewGoalPaths-rep.OldGoalPaths)
	if !rep.StillReachable {
		fmt.Fprintln(w, "WARNING: the goal is no longer reachable in the analysed window")
	}
	for _, b := range rep.BrokenPlans {
		fmt.Fprintf(w, "broken plan %s: %s\n", b.Student, b.Reason)
	}
	if len(rep.BrokenPlans) == 0 {
		_, err := fmt.Fprintln(w, "all previously-valid plans survive")
		return err
	}
	return nil
}
