package explore

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/term"
)

// wideCatalog has one status with 2^62 − 1 selections: AA 1 and AA 2 are
// offered in Fall 2011 and Spring 2012, and 62 courses without
// prerequisites (XX 100 … XX 161) only in Fall 2012. From Fall 2011 to
// Spring 2013 with no per-semester limit, three path prefixes reach the
// single Fall 2012 status {AA 1, AA 2}, and each continues through every
// non-empty subset of the 62 courses: 3·(2^62 − 1) paths, more than an
// int64 holds.
func wideCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	b := catalog.NewBuilder(term.TwoSeason).
		Add(catalog.Course{ID: "AA 1", Offered: []term.Term{f11, s12}}).
		Add(catalog.Course{ID: "AA 2", Offered: []term.Term{f11, s12}})
	for i := 0; i < 62; i++ {
		b.Add(catalog.Course{ID: fmt.Sprintf("XX %d", 100+i), Offered: []term.Term{f12}})
	}
	cat, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestDAGCountSaturates: a path count past MaxInt64 reads MaxInt64 —
// serial, parallel and multi-horizon — instead of wrapping negative.
func TestDAGCountSaturates(t *testing.T) {
	cat := wideCatalog(t)
	start := emptyStart(cat, f11)
	for _, workers := range []int{0, 2} {
		opt := Options{Substrate: SubstrateDAG, Workers: workers}
		res, err := DeadlineCount(cat, start, s13, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Paths != math.MaxInt64 || res.GoalPaths != 0 {
			t.Errorf("workers=%d: %d/%d paths, want MaxInt64/0", workers, res.Paths, res.GoalPaths)
		}
		// 3 + 3 edges into Fall 2012, then the fold's 2^62 − 1.
		if want := int64(1)<<62 + 5; res.Nodes != 5 || res.Edges != want {
			t.Errorf("workers=%d: %d nodes, %d edges, want 5 and %d", workers, res.Nodes, res.Edges, want)
		}

		// Every selection holding XX 100 and XX 101 reaches the goal:
		// 3·2^60 goal paths fit, the 3·(2^62 − 1) paths do not.
		goal := mustGoalSet(t, cat, "XX 100", "XX 101")
		mr, err := GoalCountMulti(cat, start, s13, 0, goal, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(3) << 60; mr.Paths != math.MaxInt64 || mr.GoalPaths != want || mr.GoalPathsAt[0] != want {
			t.Errorf("workers=%d: multi %d/%d paths, goal paths at the deadline %v, want MaxInt64/%d",
				workers, mr.Paths, mr.GoalPaths, mr.GoalPathsAt, want)
		}
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	const maxI = math.MaxInt64
	for _, c := range []struct{ a, b, sum, prod int64 }{
		{0, 0, 0, 0},
		{3, 4, 7, 12},
		{maxI, 0, maxI, 0},
		{maxI, 1, maxI, maxI},
		{maxI - 1, 1, maxI, maxI - 1},
		{1 << 62, 1 << 62, maxI, maxI},
		{3, 1<<62 - 1, 1<<62 + 2, maxI},
		{1 << 31, 1 << 31, 1 << 32, 1 << 62},
		{maxI, maxI, maxI, maxI},
	} {
		if got := satAdd(c.a, c.b); got != c.sum {
			t.Errorf("satAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.sum)
		}
		if got := satMul(c.a, c.b); got != c.prod {
			t.Errorf("satMul(%d, %d) = %d, want %d", c.a, c.b, got, c.prod)
		}
	}
}

// TestCountLevelInternsEachStatusOnce: a level stripe finds every status
// it holds at its index across table growth, adds each key once, and
// after a reset starts empty on the same storage.
func TestCountLevelInternsEachStatusOnce(t *testing.T) {
	const stride, n = 2, 5000
	lv := newCountLevel(stride, 1)
	key := func(i int) []uint64 { return []uint64{uint64(i) * 0x9e3779b97f4a7c15, uint64(i % 7)} }
	for round := 0; round < 2; round++ {
		lv.reset(f11, 0)
		s := &lv.stripes[0]
		for i := 0; i < n; i++ {
			k := key(i)
			h := hashWords(k)
			j, at := s.lookup(h, k)
			if j >= 0 {
				t.Fatalf("round %d: key %d found at %d before it was added", round, i, j)
			}
			s.add(at, h, k, int64(i), classExpand, i%3)
		}
		if lv.size() != n {
			t.Fatalf("round %d: level holds %d statuses, want %d", round, lv.size(), n)
		}
		for i := 0; i < n; i++ {
			k := key(i)
			j, _ := s.lookup(hashWords(k), k)
			if j != i {
				t.Fatalf("round %d: key %d resolves to %d", round, i, j)
			}
			r := s.rec(j)
			recAdd(r, 1)
			if recPrefix(r) != int64(i)+1 || recMinTake(r) != i%3 || recClass(r) != classExpand || !recSet(r).Equal(bitset.FromWords(k)) {
				t.Fatalf("round %d: status %d reads back prefix %d, minTake %d, class %d, set %v",
					round, i, recPrefix(r), recMinTake(r), recClass(r), recSet(r))
			}
		}
	}
}
