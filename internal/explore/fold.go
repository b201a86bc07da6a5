package explore

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/combin"
	"repro/internal/status"
)

// This file holds the closed-form fold of the deadline semester shared by
// the DAG's counting core and the shared counter behind what-if and
// cohorts (DESIGN.md §13). A node one semester before the
// deadline has only terminal children: each selection W ends a path, and
// a goal path iff goal.Satisfied(X ∪ W). Enumerating them one at a time
// dominates a counting build — on a typical interactive goal count
// 211,822 of 216,470 enumerated selections land there — yet the answer is
// two numbers.
//
// Split the options Y into the goal-relevant R = Y ∩ goal.Relevant() and
// the rest I = Y \ R. By the degree.Goal contract, Satisfied depends only
// on x ∩ Relevant(), so a selection S ∪ J with S ⊆ R and J ⊆ I satisfies
// the goal iff X ∪ S does. The fold therefore tests each relevant subset
// S once and weights it by the number of J that keep |S ∪ J| within the
// selection-size window: Σ_j C(|I|, j).

// foldState is lastLevelCounts' reusable per-engine storage, set up on
// the engine's first goal fold so a run that never folds pays nothing.
type foldState struct {
	ready bool
	// rel is goal.Relevant(), taken once per engine.
	rel bitset.Set
	// r and u are scratch sets: the node's relevant options, and the
	// completed set X ∪ S a relevant subset yields. They are allocated at
	// the catalog's size, not from the engine arena: the counting core
	// draws nothing else from it, and its first Make is a 16 KiB chunk.
	r, u bitset.Set
	// members lists r; idx is the combination cursor over it. Both start
	// in buf and move to the heap only past 32 entries.
	members, idx []int
	buf          [64]int
}

// lastLevelCounts returns how many selections engine.selections would
// hand out from st (a node whose children all land on the deadline
// semester), and how many of those reach a goal-satisfying completed set,
// without enumerating the selections. ok is false when the caller must
// enumerate instead:
//
//   - a selection constraint is set (it judges each selection whole);
//   - a sink listens (it is owed one event per path);
//   - a MaxPaths budget is set (a stop must land on the same selection);
//   - Y is empty (the empty-selection policy decides the one child);
//   - testing the relevant subsets would cost no less than enumerating,
//     which includes a node with no selection at all (a natural dead end).
//
// minTake is the time-based strategy's minimum, honoured only under
// Options.MinTakeFilter, exactly as selections does.
func (e *engine) lastLevelCounts(st status.Status, minTake int) (selections, goalSelections int64, ok bool) {
	if len(e.opt.Constraints) > 0 || e.sink != nil || (e.ctl != nil && e.ctl.maxPaths > 0) {
		return 0, 0, false
	}
	ny := st.Options.Len()
	if ny == 0 {
		return 0, 0, false
	}
	m := e.opt.MaxPerTerm
	if m <= 0 || m > ny {
		m = ny
	}
	if !e.opt.MinTakeFilter {
		minTake = 0
	}
	lo := max(minTake, 1)
	if minTake == 0 && e.opt.Empty == EmptyAlways {
		lo = 0 // the empty selection is handed out alongside the rest
	}
	f := &e.fold
	nr := 0
	if e.goal != nil {
		if !f.ready {
			n := e.cat.Len()
			f.rel, f.r, f.u = e.goal.Relevant(), bitset.New(n), bitset.New(n)
			f.members, f.idx = f.buf[:0:32], f.buf[32:32:64]
			f.ready = true
		}
		if nr = st.Options.IntersectLen(f.rel); nr == ny {
			// Every option relevant: one goal test per selection, as
			// enumerating does (the rule below would decline too).
			return 0, 0, false
		}
	}
	ni := ny - nr

	// Price both strategies: the selections enumeration would hand out,
	// against the relevant subsets that leave room for a valid selection.
	var tested int64
	for t := lo; t <= m; t++ {
		selections = satAdd(selections, combin.Binomial(ny, t))
	}
	for s := max(lo-ni, 0); s <= min(nr, m); s++ {
		tested = satAdd(tested, combin.Binomial(nr, s))
	}
	if selections == math.MaxInt64 || tested >= selections {
		return 0, 0, false
	}
	if e.goal == nil {
		return selections, 0, true
	}

	f.r.CopyFrom(st.Options)
	f.r.IntersectInPlace(f.rel)
	f.members = f.r.AppendMembers(f.members[:0])
	for s := max(lo-ni, 0); s <= min(nr, m); s++ {
		// weight: the selections that add j irrelevant options to a
		// relevant subset of size s.
		var weight int64
		for j := max(lo-s, 0); j <= min(ni, m-s); j++ {
			weight = satAdd(weight, combin.Binomial(ni, j))
		}
		if cap(f.idx) < s {
			f.idx = make([]int, s)
		}
		idx := f.idx[:s]
		for i := range idx {
			idx[i] = i
		}
		for {
			f.u.CopyFrom(st.Completed)
			for _, i := range idx {
				f.u.Add(f.members[i])
			}
			if e.goal.Satisfied(f.u) {
				goalSelections = satAdd(goalSelections, weight)
			}
			i := s - 1
			for i >= 0 && idx[i] == nr-s+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < s; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	return selections, goalSelections, true
}
