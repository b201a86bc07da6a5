package explore

import (
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// Pruner names in Result accounting.
const (
	PrunerTimeName  = "time"
	PrunerAvailName = "availability"
)

// A Pruner decides, before a node is expanded, whether it can still lead
// to a goal node by the end semester. Pruners must be admissible: they may
// only cut nodes from which no goal node is reachable (Lemmas 1 and the
// availability argument of §4.2.2 establish this for the two paper
// strategies).
type Pruner interface {
	// Name identifies the strategy for Result accounting.
	Name() string
	// Check returns prune=true when no goal node is reachable from st, and
	// otherwise the minimum number of courses that must be taken in
	// st.Term for the goal to remain reachable (0 if unconstrained).
	//
	// Check reads only st.Term and st.Completed, never st.Options: the
	// engines classify a generated status before deriving its option set
	// (the DAG's counting core derives it only if the status is expanded,
	// the ranked search only when it pops the status), and Check must not
	// retain st.Completed, which may be reused scratch.
	Check(st status.Status, end term.Term) (prune bool, minTake int)
}

// TimePruner is the paper's time-based strategy (§4.2.1): with left =
// goal.Remaining(X) courses still needed and m courses per semester, node
// n_i is cut when min_i = left − m·(d − s_i − 1) exceeds m; otherwise the
// student must take at least min_i courses in s_i.
type TimePruner struct {
	Goal degree.Goal
	// MaxPerTerm is the m of the run. Must be ≥ 1; the strategy is
	// undefined for unlimited m (nothing can be time-pruned) and Check
	// returns no-constraint in that case.
	MaxPerTerm int
}

// Name implements Pruner.
func (TimePruner) Name() string { return PrunerTimeName }

// Check implements Pruner.
func (p TimePruner) Check(st status.Status, end term.Term) (bool, int) {
	if p.MaxPerTerm <= 0 {
		return false, 0
	}
	left := p.Goal.Remaining(st.Completed)
	if left < 0 { // unsatisfiable goal
		return true, 0
	}
	// Semesters after the current one in which courses can still be taken:
	// d − s_i − 1 (arrival at d takes no courses).
	after := end.Sub(st.Term) - 1
	if after < 0 {
		after = 0
	}
	min := left - p.MaxPerTerm*after
	if min > p.MaxPerTerm {
		return true, 0
	}
	if min < 0 {
		min = 0
	}
	return false, min
}

// AvailPruner is the paper's course-availability strategy (§4.2.2): node
// n_i is cut when even completing every course offered in the remaining
// course-taking semesters cannot satisfy the goal.
type AvailPruner struct {
	Cat  *catalog.Catalog
	Goal degree.Goal
	// PrereqAware, when set, simulates the remaining semesters in order and
	// only accrues offered courses whose prerequisites the accrued set
	// satisfies — still optimistic (ignores m), so still admissible, but
	// strictly stronger than the paper's schedule-only check. Off by
	// default for paper fidelity; the ablation benchmarks compare both.
	PrereqAware bool
}

// Name implements Pruner.
func (AvailPruner) Name() string { return PrunerAvailName }

// Check implements Pruner.
func (p AvailPruner) Check(st status.Status, end term.Term) (bool, int) {
	lastTaking := end.Prev()
	if st.Term.After(lastTaking) {
		return !p.Goal.Satisfied(st.Completed), 0
	}
	var xe = st.Completed
	if p.PrereqAware {
		acc := st.Completed.Clone()
		for t := st.Term; !t.After(lastTaking); t = t.Next() {
			// Options computes offered ∧ prereq-satisfied ∧ not-completed.
			acc.UnionInPlace(p.Cat.Options(acc, t))
		}
		xe = acc
	} else {
		xe = st.Completed.Union(p.Cat.OfferedFrom(st.Term, lastTaking))
	}
	return !p.Goal.Satisfied(xe), 0
}

// PaperPruners returns the two strategies of §4.2 in the order the paper
// applies them (time first, then availability).
func PaperPruners(cat *catalog.Catalog, goal degree.Goal, maxPerTerm int) []Pruner {
	return []Pruner{
		TimePruner{Goal: goal, MaxPerTerm: maxPerTerm},
		AvailPruner{Cat: cat, Goal: goal},
	}
}
