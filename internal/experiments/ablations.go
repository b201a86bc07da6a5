package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/brandeis"
	"repro/internal/explore"
)

// AblationRow is one design-choice comparison: the same query timed under
// two engine configurations.
type AblationRow struct {
	Name     string        `json:"name"`
	VariantA string        `json:"variantA"`
	VariantB string        `json:"variantB"`
	TimeA    time.Duration `json:"timeANs"`
	TimeB    time.Duration `json:"timeBNs"`
	// PathsA and PathsB confirm output equivalence (or document the
	// expected difference for policies that change the path universe).
	PathsA int64 `json:"pathsA"`
	PathsB int64 `json:"pathsB"`
}

// RunAblations times the design choices DESIGN.md §8 calls out, on the
// evaluation dataset. Each variant runs `rounds` times and reports the
// fastest (minimum) to damp scheduler noise.
func RunAblations(env *Env, rounds int) ([]AblationRow, error) {
	if rounds < 1 {
		rounds = 1
	}
	end := brandeis.EndTerm()
	timeIt := func(opt explore.Options, d int, goal bool) (time.Duration, int64, error) {
		best := time.Duration(0)
		var paths int64
		for r := 0; r < rounds; r++ {
			var res explore.Result
			var err error
			if goal {
				res, err = explore.GoalCount(env.Cat, env.start(d), end, env.Major, env.pruners(), opt)
			} else {
				res, err = explore.DeadlineCount(env.Cat, env.start(d), end, opt)
			}
			if err != nil {
				return 0, 0, err
			}
			if r == 0 || res.Elapsed < best {
				best = res.Elapsed
			}
			paths = res.Paths
		}
		return best, paths, nil
	}

	var rows []AblationRow
	add := func(name, la, lb string, oa, ob explore.Options, d int, goal bool) error {
		ta, pa, err := timeIt(oa, d, goal)
		if err != nil {
			return fmt.Errorf("ablation %s/%s: %v", name, la, err)
		}
		tb, pb, err := timeIt(ob, d, goal)
		if err != nil {
			return fmt.Errorf("ablation %s/%s: %v", name, lb, err)
		}
		rows = append(rows, AblationRow{
			Name: name, VariantA: la, VariantB: lb,
			TimeA: ta, TimeB: tb, PathsA: pa, PathsB: pb,
		})
		return nil
	}

	base := env.opt()
	dag := base
	dag.Substrate = explore.SubstrateDAG
	if err := add("status interning (deadline d=4)", "tree walk", "status DAG", base, dag, 4, false); err != nil {
		return nil, err
	}
	filtered := base
	filtered.MinTakeFilter = true
	if err := add("min-take filter (goal d=5)", "off (paper)", "on", base, filtered, 5, true); err != nil {
		return nil, err
	}
	parallel := base
	parallel.Workers = 8
	if err := add("parallel counting (deadline d=5)", "workers=1", "workers=8", base, parallel, 5, false); err != nil {
		return nil, err
	}
	always := base
	always.Empty = explore.EmptyAlways
	if err := add("empty-selection policy (deadline d=3)", "when-stuck (paper)", "always", base, always, 3, false); err != nil {
		return nil, err
	}

	// Prereq-aware availability pruning needs a custom pruner set.
	aware := []explore.Pruner{
		explore.TimePruner{Goal: env.Major, MaxPerTerm: brandeis.MaxPerTerm},
		explore.AvailPruner{Cat: env.Cat, Goal: env.Major, PrereqAware: true},
	}
	var bestOff, bestOn time.Duration
	var pOff, pOn int64
	for r := 0; r < rounds; r++ {
		off, err := explore.GoalCount(env.Cat, env.start(5), end, env.Major, env.pruners(), base)
		if err != nil {
			return nil, err
		}
		on, err := explore.GoalCount(env.Cat, env.start(5), end, env.Major, aware, base)
		if err != nil {
			return nil, err
		}
		if r == 0 || off.Elapsed < bestOff {
			bestOff = off.Elapsed
		}
		if r == 0 || on.Elapsed < bestOn {
			bestOn = on.Elapsed
		}
		pOff, pOn = off.Paths, on.Paths
	}
	rows = append(rows, AblationRow{
		Name: "prereq-aware availability (goal d=5)", VariantA: "off (paper)", VariantB: "on",
		TimeA: bestOff, TimeB: bestOn, PathsA: pOff, PathsB: pOn,
	})
	return rows, nil
}

// PrintAblations renders the comparison table.
func PrintAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Ablations: design choices of DESIGN.md §8 (best of N rounds)")
	fmt.Fprintf(w, "%-40s | %-22s | %-22s\n", "ablation", "variant A", "variant B")
	for _, r := range rows {
		fmt.Fprintf(w, "%-40s | %-12s %9s | %-12s %9s", r.Name,
			r.VariantA, fmtDur(r.TimeA), r.VariantB, fmtDur(r.TimeB))
		if r.PathsA != r.PathsB {
			fmt.Fprintf(w, "  (paths %d vs %d)", r.PathsA, r.PathsB)
		}
		fmt.Fprintln(w)
	}
}
