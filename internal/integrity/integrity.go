// Package integrity validates course catalogs before they are served.
//
// Real course-prerequisite networks are full of structural defects —
// dangling references, prerequisite cycles, courses that are required but
// never offered — and the networks change term over term, so every
// ingestion and every hot reload must prove the data it is about to
// publish. The package offers two gates:
//
//   - CheckCourses validates parsed courses before a catalog is built:
//     empty and duplicate IDs, dangling and self prerequisite references,
//     offerings off the calendar, repeated offerings. These errors would
//     make catalog.Build fail outright; checking first lets a lenient
//     importer quarantine exactly the offending records and build from
//     the rest. CheckSpecs is the same gate for serialised specs: it
//     parses each prerequisite and term label, reporting the ones that
//     do not parse, then runs CheckCourses.
//
//   - Check validates a built catalog: prerequisite cycles, logically
//     unreachable courses, never-offered courses (and prerequisites that
//     depend on them), and schedule infeasibility — a course whose
//     mandatory prerequisite is never offered strictly before any of the
//     course's own offerings can never be taken even though its logic is
//     sound.
//
// Both return a machine-readable Report with severity levels. A Report
// with no error-severity issues is a pass; warnings are advisory.
package integrity

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/term"
)

// Severity grades an Issue.
type Severity string

const (
	// Warning marks data that is suspicious but servable.
	Warning Severity = "warning"
	// Error marks data that must not be served.
	Error Severity = "error"
)

// Issue codes reported by CheckCourses, CheckSpecs and Check.
const (
	CodeDuplicate          = "duplicate-course"
	CodeBadID              = "bad-course-id"
	CodePrereqSyntax       = "prereq-syntax"
	CodeDanglingPrereq     = "dangling-prereq"
	CodeSelfPrereq         = "self-prereq"
	CodeBadTerm            = "bad-term"
	CodeDuplicateOffering  = "duplicate-offering"
	CodePrereqCycle        = "prereq-cycle"
	CodeUnreachable        = "unreachable"
	CodeNeverOffered       = "never-offered"
	CodePrereqNeverOffered = "prereq-never-offered"
	CodeScheduleInfeasible = "schedule-infeasible"
)

// Issue is one defect found in a catalog or spec set.
type Issue struct {
	// Code is the machine-readable defect class (Code* constants).
	Code string `json:"code"`
	// Severity is Error for defects that must block serving, Warning for
	// advisories.
	Severity Severity `json:"severity"`
	// Course is the course the defect belongs to, when attributable.
	Course string `json:"course,omitempty"`
	// Related lists other courses involved (cycle members, missing
	// references, …).
	Related []string `json:"related,omitempty"`
	// Detail describes the defect.
	Detail string `json:"detail"`
}

// String renders the issue for logs.
func (i Issue) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s", i.Severity, i.Code)
	if i.Course != "" {
		fmt.Fprintf(&b, " %s", i.Course)
	}
	fmt.Fprintf(&b, ": %s", i.Detail)
	return b.String()
}

// Report is the result of one validation pass.
type Report struct {
	// Courses is the number of courses examined.
	Courses int `json:"courses"`
	// Errors and Warnings count issues per severity.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	// Issues lists every defect, errors first, then by course.
	Issues []Issue `json:"issues,omitempty"`
}

// OK reports whether the validated data may be served: no error-severity
// issues were found.
func (r Report) OK() bool { return r.Errors == 0 }

// Summary is a one-line human description ("2 errors, 1 warning in 38
// courses").
func (r Report) Summary() string {
	return fmt.Sprintf("%d errors, %d warnings in %d courses", r.Errors, r.Warnings, r.Courses)
}

// ErrorCourses returns the distinct courses carrying error-severity
// issues, sorted. These are the records a lenient importer quarantines.
func (r Report) ErrorCourses() []string {
	seen := map[string]bool{}
	for _, is := range r.Issues {
		if is.Severity == Error && is.Course != "" {
			seen[is.Course] = true
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (r *Report) add(is Issue) {
	if is.Severity == Error {
		r.Errors++
	} else {
		r.Warnings++
	}
	r.Issues = append(r.Issues, is)
}

// finish orders issues deterministically: errors before warnings, then by
// course, then by code.
func (r *Report) finish() {
	sort.SliceStable(r.Issues, func(i, j int) bool {
		a, b := r.Issues[i], r.Issues[j]
		if (a.Severity == Error) != (b.Severity == Error) {
			return a.Severity == Error
		}
		if a.Course != b.Course {
			return a.Course < b.Course
		}
		return a.Code < b.Code
	})
}

// CheckCourses validates parsed courses before catalog build. It finds
// exactly the defects that would make catalog.Build fail — empty or
// duplicate IDs, dangling or self prerequisite references, offerings
// outside the calendar — plus advisory anomalies (an offering listed more
// than once, which Build drops). A lenient importer drops the courses
// named by Report.ErrorCourses and re-checks until clean; see
// QuarantineCourses.
func CheckCourses(cal *term.Calendar, courses []catalog.Course) Report {
	rep := Report{Courses: len(courses)}
	known := make(map[string]bool, len(courses))
	for _, c := range courses {
		if c.ID != "" {
			known[c.ID] = true
		}
	}
	seen := make(map[string]bool, len(courses))
	offered := map[term.Term]bool{}
	for _, c := range courses {
		if c.ID == "" {
			rep.add(Issue{Code: CodeBadID, Severity: Error, Detail: "course with empty ID"})
			continue
		}
		if seen[c.ID] {
			rep.add(Issue{Code: CodeDuplicate, Severity: Error, Course: c.ID,
				Detail: fmt.Sprintf("duplicate course %q", c.ID)})
			continue
		}
		seen[c.ID] = true
		if c.Prereq != nil {
			var missing []string
			selfRef := false
			for _, ref := range expr.Courses(c.Prereq) {
				if ref == c.ID {
					selfRef = true
				} else if !known[ref] {
					missing = append(missing, ref)
				}
			}
			if selfRef {
				rep.add(Issue{Code: CodeSelfPrereq, Severity: Error, Course: c.ID,
					Detail: fmt.Sprintf("course %q lists itself as a prerequisite", c.ID)})
			}
			if len(missing) > 0 {
				rep.add(Issue{Code: CodeDanglingPrereq, Severity: Error, Course: c.ID,
					Related: missing,
					Detail:  fmt.Sprintf("prerequisite references unknown course(s) %s", strings.Join(missing, ", "))})
			}
		}
		clear(offered)
		for j, t := range c.Offered {
			if t.IsZero() || t.Calendar() != cal {
				rep.add(Issue{Code: CodeBadTerm, Severity: Error, Course: c.ID,
					Detail: fmt.Sprintf("offering %d: term from a different calendar", j)})
				continue
			}
			if offered[t] {
				rep.add(Issue{Code: CodeDuplicateOffering, Severity: Warning, Course: c.ID,
					Detail: fmt.Sprintf("offering %q listed more than once", t.Label())})
			}
			offered[t] = true
		}
	}
	rep.finish()
	return rep
}

// CheckSpecs validates serialised course specs before catalog build:
// it parses each spec's prerequisite and term labels, reporting
// unparseable ones (prereq-syntax, bad-term), then runs CheckCourses on
// what parsed. It finds exactly the defects that would make
// catalog.FromSpecs fail, plus CheckCourses' advisories; see
// QuarantineSpecs.
func CheckSpecs(cal *term.Calendar, specs []catalog.CourseSpec) Report {
	var parsed []Issue
	labels := term.NewLabels(cal)
	courses := make([]catalog.Course, len(specs))
	seen := make(map[string]bool, len(specs))
	for i, sp := range specs {
		courses[i].ID = sp.ID
		// CheckCourses reports empty and repeated IDs without reading
		// the rest of the record.
		if sp.ID == "" || seen[sp.ID] {
			continue
		}
		seen[sp.ID] = true
		if sp.Prereq != "" {
			q, err := expr.Parse(sp.Prereq)
			if err != nil {
				parsed = append(parsed, Issue{Code: CodePrereqSyntax, Severity: Error, Course: sp.ID,
					Detail: fmt.Sprintf("prerequisite %q: %v", sp.Prereq, err)})
			}
			courses[i].Prereq = q
		}
		for _, lbl := range sp.Offered {
			t, err := labels.Parse(lbl)
			if err != nil {
				parsed = append(parsed, Issue{Code: CodeBadTerm, Severity: Error, Course: sp.ID,
					Detail: fmt.Sprintf("offering %q: %v", lbl, err)})
				continue
			}
			courses[i].Offered = append(courses[i].Offered, t)
		}
	}
	rep := CheckCourses(cal, courses)
	for _, is := range parsed {
		rep.add(is)
	}
	rep.finish()
	return rep
}

// QuarantineCourses drops every course CheckCourses attributes an error
// to, re-checking until a fixpoint (dropping a course can orphan
// references to it). It returns the surviving courses, the quarantined
// course IDs in drop order, and the issues: the errors that caused each
// drop, then the warnings the survivors carry. The survivors are
// guaranteed to pass CheckCourses with no errors.
func QuarantineCourses(cal *term.Calendar, courses []catalog.Course) (clean []catalog.Course, quarantined []string, issues []Issue) {
	return quarantine(courses, func(c catalog.Course) string { return c.ID },
		func(cs []catalog.Course) Report { return CheckCourses(cal, cs) })
}

// QuarantineSpecs is QuarantineCourses over serialised specs, checked by
// CheckSpecs.
func QuarantineSpecs(cal *term.Calendar, specs []catalog.CourseSpec) (clean []catalog.CourseSpec, quarantined []string, issues []Issue) {
	return quarantine(specs, func(sp catalog.CourseSpec) string { return sp.ID },
		func(sps []catalog.CourseSpec) Report { return CheckSpecs(cal, sps) })
}

// quarantine is the fixpoint behind QuarantineCourses and QuarantineSpecs.
func quarantine[T any](records []T, id func(T) string, check func([]T) Report) (clean []T, quarantined []string, issues []Issue) {
	clean = records
	for {
		rep := check(clean)
		if rep.OK() {
			return clean, quarantined, append(issues, rep.Issues...)
		}
		drop := map[string]bool{}
		for _, c := range rep.ErrorCourses() {
			drop[c] = true
		}
		for _, is := range rep.Issues {
			if is.Severity == Error {
				issues = append(issues, is)
			}
		}
		quarantined = append(quarantined, rep.ErrorCourses()...)
		kept := make([]T, 0, len(clean))
		dropped := false
		for _, r := range clean {
			// Duplicate IDs: drop every record with the ID, the data is
			// ambiguous. Empty-ID records carry no course name and are
			// dropped unconditionally.
			if id(r) == "" || drop[id(r)] {
				dropped = true
				continue
			}
			kept = append(kept, r)
		}
		if !dropped {
			// Errors not attributable to a course (shouldn't happen):
			// give up rather than loop forever.
			return kept, quarantined, issues
		}
		clean = kept
	}
}

// Check validates a built catalog: the structural and temporal defects
// that survive catalog.Build. Cycles through mandatory prerequisites and
// logically unreachable courses are errors; never-offered courses and
// cycles that OR-alternatives break are warnings.
func Check(cat *catalog.Catalog) Report {
	rep := Report{Courses: cat.Len()}
	n := cat.Len()

	// Unreachable courses: prerequisite logic unsatisfiable even when
	// everything else is completed.
	unreachable := map[string]bool{}
	for _, id := range cat.Unreachable() {
		unreachable[id] = true
		rep.add(Issue{Code: CodeUnreachable, Severity: Error, Course: id,
			Detail: fmt.Sprintf("course %q can never be taken: its prerequisite condition is unsatisfiable", id)})
	}

	// Reference graph over dense indexes: an edge i→j when course i's
	// prerequisite references course j.
	refs := make([][]int, n)
	for i := 0; i < n; i++ {
		for _, id := range expr.Courses(cat.Course(i).Prereq) {
			if j, ok := cat.Index(id); ok {
				refs[i] = append(refs[i], j)
			}
		}
	}

	// Prerequisite cycles: strongly connected components of size > 1 (or
	// self-loops). A cycle whose members are all reachable is survivable
	// via OR-alternatives — warn; a cycle containing unreachable members
	// corroborates the unreachability — error.
	for _, scc := range stronglyConnected(refs) {
		if len(scc) == 1 && !contains(refs[scc[0]], scc[0]) {
			continue
		}
		ids := make([]string, len(scc))
		cyclic := false
		for k, i := range scc {
			ids[k] = cat.ID(i)
			if unreachable[ids[k]] {
				cyclic = true
			}
		}
		sort.Strings(ids)
		sev := Warning
		if cyclic {
			sev = Error
		}
		rep.add(Issue{Code: CodePrereqCycle, Severity: sev, Course: ids[0], Related: ids,
			Detail: fmt.Sprintf("prerequisite cycle among %s", strings.Join(ids, ", "))})
	}

	// Never-offered courses, and prerequisites that depend on them.
	neverOffered := map[string]bool{}
	for _, id := range cat.NeverOffered() {
		neverOffered[id] = true
		rep.add(Issue{Code: CodeNeverOffered, Severity: Warning, Course: id,
			Detail: fmt.Sprintf("course %q is never offered in the published schedule", id)})
	}
	for i := 0; i < n; i++ {
		var dead []string
		for _, id := range expr.Courses(cat.Course(i).Prereq) {
			if neverOffered[id] {
				dead = append(dead, id)
			}
		}
		if len(dead) > 0 {
			sort.Strings(dead)
			rep.add(Issue{Code: CodePrereqNeverOffered, Severity: Warning, Course: cat.ID(i),
				Related: dead,
				Detail: fmt.Sprintf("prerequisite of %q references never-offered course(s) %s",
					cat.ID(i), strings.Join(dead, ", "))})
		}
	}

	// Schedule infeasibility: course c needs mandatory prerequisite p
	// (p appears in every top-level disjunct), but no offering of p
	// precedes any offering of c — within the published window, a student
	// starting fresh can never take c. Advisory only: students may have
	// completed p before the window (transfer credit). Skip courses
	// already flagged unreachable or never-offered.
	for i := 0; i < n; i++ {
		c := cat.Course(i)
		if len(c.Offered) == 0 || unreachable[c.ID] {
			continue
		}
		lastOffering := c.Offered[len(c.Offered)-1]
		for _, pid := range mandatoryPrereqs(c.Prereq) {
			j, ok := cat.Index(pid)
			if !ok || neverOffered[pid] {
				continue
			}
			p := cat.Course(j)
			if len(p.Offered) == 0 {
				continue
			}
			if !p.Offered[0].Before(lastOffering) {
				rep.add(Issue{Code: CodeScheduleInfeasible, Severity: Warning, Course: c.ID,
					Related: []string{pid},
					Detail: fmt.Sprintf("course %q requires %q, but %q is never offered before %q's last offering (%s)",
						c.ID, pid, pid, c.ID, lastOffering.Label())})
			}
		}
	}

	rep.finish()
	return rep
}

// mandatoryPrereqs returns the course IDs that appear in every
// top-level disjunct of q — prerequisites no alternative avoids.
func mandatoryPrereqs(q expr.Expr) []string {
	if q == nil {
		return nil
	}
	clauses := disjuncts(q)
	if len(clauses) == 0 {
		return nil
	}
	counts := map[string]int{}
	for _, cl := range clauses {
		for _, id := range expr.Courses(cl) {
			counts[id]++
		}
	}
	var out []string
	for id, c := range counts {
		if c == len(clauses) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// disjuncts splits q into its top-level OR alternatives.
func disjuncts(q expr.Expr) []expr.Expr {
	switch t := q.(type) {
	case expr.True:
		return nil
	case expr.Or:
		return t.Terms
	default:
		return []expr.Expr{q}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// stronglyConnected returns the strongly connected components of the
// digraph (Tarjan, iterative), components in reverse topological order.
func stronglyConnected(adj [][]int) [][]int {
	n := len(adj)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack   []int
		comps   [][]int
		counter int
	)
	type frame struct {
		v, edge int
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{v: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.edge == 0 {
				index[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.edge < len(adj[v]) {
				w := adj[v][f.edge]
				f.edge++
				if index[w] == unvisited {
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return comps
}
