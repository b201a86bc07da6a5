package combin

import (
	"math"
	"math/big"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func TestForEachCombinationOrder(t *testing.T) {
	y := bitset.FromMembers(10, 1, 4, 7)
	var got [][]int
	ForEachCombination(y, 2, func(c []int) bool {
		got = append(got, append([]int(nil), c...))
		return true
	})
	want := [][]int{{1}, {4}, {7}, {1, 4}, {1, 7}, {4, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("combinations = %v, want %v", got, want)
	}
}

func TestForEachCombinationNoLimit(t *testing.T) {
	y := bitset.FromMembers(10, 0, 1, 2)
	count := 0
	ForEachCombination(y, 0, func(c []int) bool { count++; return true })
	if count != 7 { // 2^3 - 1
		t.Errorf("count = %d, want 7", count)
	}
	count = 0
	ForEachCombination(y, 99, func(c []int) bool { count++; return true })
	if count != 7 {
		t.Errorf("count with big limit = %d, want 7", count)
	}
}

func TestForEachCombinationEmptyAndStop(t *testing.T) {
	called := false
	ForEachCombination(bitset.New(10), 3, func([]int) bool { called = true; return true })
	if called {
		t.Error("callback invoked for empty set")
	}
	n := 0
	ForEachCombination(bitset.FromMembers(10, 1, 2, 3), 3, func([]int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop after %d calls, want 2", n)
	}
}

func TestSubsets(t *testing.T) {
	subs := Subsets(bitset.FromMembers(5, 0, 3), 2, 5)
	if len(subs) != 3 {
		t.Fatalf("len = %d", len(subs))
	}
	if !subs[0].Equal(bitset.FromMembers(5, 0)) ||
		!subs[1].Equal(bitset.FromMembers(5, 3)) ||
		!subs[2].Equal(bitset.FromMembers(5, 0, 3)) {
		t.Errorf("subsets = %v", subs)
	}
}

func TestCountMatchesEnumeration(t *testing.T) {
	f := func(mask uint16, m uint8) bool {
		y := bitset.New(16)
		for i := 0; i < 16; i++ {
			if mask&(1<<i) != 0 {
				y.Add(i)
			}
		}
		limit := int(m%6) + 1
		n := 0
		ForEachCombination(y, limit, func([]int) bool { n++; return true })
		return int64(n) == Count(y.Len(), limit)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {5, 3, 10},
		{10, 4, 210}, {38, 3, 8436}, {5, 6, 0}, {5, -1, 0},
		{62, 31, 465428353255261088},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	// Overflow saturates.
	if got := Binomial(200, 100); got != math.MaxInt64 {
		t.Errorf("Binomial(200,100) = %d, want saturation", got)
	}
}

// TestBinomialMatchesBig holds the 64-bit Binomial to an arbitrary-
// precision reference for every n ≤ 256 and every k in [−1, n+1],
// saturation included.
func TestBinomialMatchesBig(t *testing.T) {
	maxInt := big.NewInt(math.MaxInt64)
	for n := 0; n <= 256; n++ {
		for k := -1; k <= n+1; k++ {
			want := int64(0)
			if k >= 0 && k <= n {
				ref := new(big.Int).Binomial(int64(n), int64(k))
				if ref.Cmp(maxInt) > 0 {
					want = math.MaxInt64
				} else {
					want = ref.Int64()
				}
			}
			if got := Binomial(n, k); got != want {
				t.Fatalf("Binomial(%d,%d) = %d, want %d", n, k, got, want)
			}
		}
	}
}

func TestBinomialAllocatesNothing(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { Binomial(60, 30) }); a != 0 {
		t.Errorf("Binomial allocates %.0f times per call, want 0", a)
	}
}

func TestCountEdges(t *testing.T) {
	if got := Count(0, 3); got != 0 {
		t.Errorf("Count(0,3) = %d", got)
	}
	if got := Count(-1, 3); got != 0 {
		t.Errorf("Count(-1,3) = %d", got)
	}
	if got := Count(3, 0); got != 7 {
		t.Errorf("Count(3,0) = %d, want 7 (no limit)", got)
	}
	// Paper §4.3 branching factor: |Y|=38, m=3 → C(38,1)+C(38,2)+C(38,3).
	want := int64(38 + 703 + 8436)
	if got := Count(38, 3); got != want {
		t.Errorf("Count(38,3) = %d, want %d", got, want)
	}
	if got := Count(300, 300); got != math.MaxInt64 {
		t.Errorf("Count overflow = %d, want saturation", got)
	}
}

func BenchmarkForEachCombination38x3(b *testing.B) {
	y := bitset.New(38)
	for i := 0; i < 38; i++ {
		y.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		ForEachCombination(y, 3, func([]int) bool { n++; return true })
		if n != 9177 {
			b.Fatalf("n = %d", n)
		}
	}
}

// A reused Scratch must enumerate exactly like the allocating package
// function, including after being used for a differently sized set.
func TestScratchReuseMatchesPackageFunction(t *testing.T) {
	var s Scratch
	sets := []bitset.Set{
		bitset.FromMembers(10, 1, 3, 5, 7),
		bitset.FromMembers(10, 2),
		bitset.FromMembers(70, 0, 9, 31, 64, 69),
		bitset.New(10),
	}
	for _, y := range sets {
		for _, m := range []int{0, 1, 2, 3} {
			var want, got [][]int
			ForEachCombination(y, m, func(c []int) bool {
				want = append(want, append([]int(nil), c...))
				return true
			})
			s.ForEachCombination(y, m, func(c []int) bool {
				got = append(got, append([]int(nil), c...))
				return true
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scratch enumeration diverged for %v m=%d:\n got %v\nwant %v", y, m, got, want)
			}
		}
	}
}
