package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicAddRemoveContains(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Errorf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Errorf("after Add(%d), Contains false", i)
		}
	}
	if got := s.Len(); got != 8 {
		t.Errorf("Len = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Remove(64) did not remove")
	}
	s.Remove(64) // idempotent
	s.Remove(-1) // no-op
	s.Remove(10000)
	if got := s.Len(); got != 7 {
		t.Errorf("Len after removes = %d, want 7", got)
	}
}

// TestFromWordsAliases: FromWords and Words expose one storage, bit i of
// word j standing for member 64j+i.
func TestFromWordsAliases(t *testing.T) {
	words := []uint64{1<<3 | 1<<63, 1 << 1}
	s := FromWords(words)
	if got := s.Members(); !reflect.DeepEqual(got, []int{3, 63, 65}) {
		t.Fatalf("members = %v, want [3 63 65]", got)
	}
	s.Add(0)
	s.Remove(65)
	if words[0] != 1|1<<3|1<<63 || words[1] != 0 {
		t.Errorf("writes through the set did not reach the words: %x", words)
	}
	if w := s.Words(); &w[0] != &words[0] || len(w) != 2 {
		t.Errorf("Words does not alias the set's storage")
	}
	if !FromWords(FromMembers(130, 5, 129).Words()).Equal(FromMembers(130, 5, 129)) {
		t.Error("FromWords(s.Words()) differs from s")
	}
}

func TestAddGrowsAndNegativePanics(t *testing.T) {
	var s Set
	s.Add(500)
	if !s.Contains(500) {
		t.Error("grow-on-Add failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) did not panic")
		}
	}()
	s.Add(-1)
}

func TestContainsOutOfRange(t *testing.T) {
	s := FromMembers(10, 3)
	if s.Contains(-1) || s.Contains(100) {
		t.Error("out-of-range Contains returned true")
	}
}

func TestFromMembersAndMembers(t *testing.T) {
	s := FromMembers(100, 5, 1, 99, 64)
	want := []int{1, 5, 64, 99}
	if got := s.Members(); !reflect.DeepEqual(got, want) {
		t.Errorf("Members = %v, want %v", got, want)
	}
}

func TestAppendMembersReusesBuffer(t *testing.T) {
	s := FromMembers(200, 130, 2, 64, 7)
	buf := make([]int, 0, 8)
	got := s.AppendMembers(buf[:0])
	if want := []int{2, 7, 64, 130}; !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendMembers = %v, want %v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("AppendMembers reallocated a buffer with room to spare")
	}
	if got := s.AppendMembers([]int{-1}); !reflect.DeepEqual(got, []int{-1, 2, 7, 64, 130}) {
		t.Errorf("AppendMembers dropped the prefix: %v", got)
	}
	if a := testing.AllocsPerRun(100, func() { buf = s.AppendMembers(buf[:0]) }); a != 0 {
		t.Errorf("AppendMembers allocates %.0f times into a large enough buffer", a)
	}
}

func TestEmptyAndClear(t *testing.T) {
	var zero Set
	if !zero.Empty() {
		t.Error("zero set not empty")
	}
	s := FromMembers(64, 0, 63)
	if s.Empty() {
		t.Error("non-empty reported empty")
	}
	s.Clear()
	if !s.Empty() || s.Len() != 0 {
		t.Error("Clear did not empty set")
	}
}

func TestSetAlgebraSmall(t *testing.T) {
	a := FromMembers(10, 1, 2, 3)
	b := FromMembers(10, 3, 4)
	if got := a.Union(b).Members(); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b).Members(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b).Members(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Diff = %v", got)
	}
	if a.SubsetOf(b) {
		t.Error("a ⊆ b reported true")
	}
	if !FromMembers(10, 3).SubsetOf(a) {
		t.Error("{3} ⊆ a reported false")
	}
	if !a.Intersects(b) {
		t.Error("a ∩ b ≠ ∅ reported false")
	}
	if a.Intersects(FromMembers(10, 7, 8)) {
		t.Error("disjoint Intersects reported true")
	}
}

func TestAlgebraMixedCapacities(t *testing.T) {
	small := FromMembers(4, 1)
	big := FromMembers(300, 1, 299)
	if got := small.Union(big).Members(); !reflect.DeepEqual(got, []int{1, 299}) {
		t.Errorf("Union mixed = %v", got)
	}
	if got := big.Diff(small).Members(); !reflect.DeepEqual(got, []int{299}) {
		t.Errorf("Diff mixed = %v", got)
	}
	if got := big.Intersect(small).Members(); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Intersect mixed = %v", got)
	}
	if !small.SubsetOf(big) {
		t.Error("small ⊆ big false")
	}
	if big.SubsetOf(small) {
		t.Error("big ⊆ small true")
	}
	if !small.Equal(FromMembers(1000, 1)) {
		t.Error("Equal should ignore capacity")
	}
	if !New(0).Equal(New(500)) {
		t.Error("empty sets of different capacity not Equal")
	}
}

func TestInPlaceOps(t *testing.T) {
	s := FromMembers(10, 1, 2)
	s.UnionInPlace(FromMembers(200, 150))
	if !s.Contains(150) || !s.Contains(1) {
		t.Error("UnionInPlace with growth failed")
	}
	s.DiffInPlace(FromMembers(10, 2))
	if s.Contains(2) || !s.Contains(1) {
		t.Error("DiffInPlace failed")
	}
	// DiffInPlace with a larger operand must not panic.
	u := FromMembers(5, 1)
	u.DiffInPlace(FromMembers(1000, 1, 999))
	if !u.Empty() {
		t.Error("DiffInPlace larger operand failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromMembers(10, 1)
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Error("Clone shares storage")
	}
	z := (Set{}).Clone()
	if !z.Empty() {
		t.Error("Clone of zero set not empty")
	}
}

func TestMinMax(t *testing.T) {
	var empty Set
	if empty.Min() != -1 || empty.Max() != -1 {
		t.Error("empty Min/Max should be -1")
	}
	s := FromMembers(200, 7, 64, 199)
	if s.Min() != 7 {
		t.Errorf("Min = %d", s.Min())
	}
	if s.Max() != 199 {
		t.Errorf("Max = %d", s.Max())
	}
}

func TestForEachOrder(t *testing.T) {
	s := FromMembers(130, 129, 0, 64, 63)
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{0, 63, 64, 129}) {
		t.Errorf("ForEach order = %v", got)
	}
}

func TestString(t *testing.T) {
	if got := FromMembers(10, 2, 5).String(); got != "{2, 5}" {
		t.Errorf("String = %q", got)
	}
	if got := (Set{}).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestKey(t *testing.T) {
	a := FromMembers(64, 1, 2)
	b := FromMembers(640, 1, 2) // same members, larger capacity
	if a.Key() != b.Key() {
		t.Error("Key differs across capacities")
	}
	c := FromMembers(64, 1, 3)
	if a.Key() == c.Key() {
		t.Error("distinct sets share Key")
	}
	if (Set{}).Key() != "" {
		t.Error("empty Key not empty string")
	}
	if New(500).Key() != "" {
		t.Error("empty wide set Key not empty string")
	}
}

// randSet builds a set from a bitmask pair for property tests (128 bits).
func randSet(lo, hi uint64) Set {
	return Set{words: []uint64{lo, hi}}
}

func TestQuickAlgebraLaws(t *testing.T) {
	type pair struct{ ALo, AHi, BLo, BHi uint64 }
	check := func(name string, f interface{}) {
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	_ = pair{}
	check("union commutes", func(al, ah, bl, bh uint64) bool {
		a, b := randSet(al, ah), randSet(bl, bh)
		return a.Union(b).Equal(b.Union(a))
	})
	check("intersect commutes", func(al, ah, bl, bh uint64) bool {
		a, b := randSet(al, ah), randSet(bl, bh)
		return a.Intersect(b).Equal(b.Intersect(a))
	})
	check("de morgan diff", func(al, ah, bl, bh, cl, ch uint64) bool {
		a, b, c := randSet(al, ah), randSet(bl, bh), randSet(cl, ch)
		// a - (b ∪ c) == (a - b) - c
		return a.Diff(b.Union(c)).Equal(a.Diff(b).Diff(c))
	})
	check("diff then disjoint", func(al, ah, bl, bh uint64) bool {
		a, b := randSet(al, ah), randSet(bl, bh)
		return !a.Diff(b).Intersects(b)
	})
	check("subset iff diff empty", func(al, ah, bl, bh uint64) bool {
		a, b := randSet(al, ah), randSet(bl, bh)
		return a.SubsetOf(b) == a.Diff(b).Empty()
	})
	check("len union inclusion-exclusion", func(al, ah, bl, bh uint64) bool {
		a, b := randSet(al, ah), randSet(bl, bh)
		return a.Union(b).Len() == a.Len()+b.Len()-a.Intersect(b).Len()
	})
	check("members round-trip", func(al, ah uint64) bool {
		a := randSet(al, ah)
		back := FromMembers(128, a.Members()...)
		return back.Equal(a)
	})
	check("key equality matches Equal", func(al, ah, bl, bh uint64) bool {
		a, b := randSet(al, ah), randSet(bl, bh)
		return (a.Key() == b.Key()) == a.Equal(b)
	})
}

func TestQuickInPlaceMatchesPure(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		a := randSet(rng.Uint64(), rng.Uint64())
		b := randSet(rng.Uint64(), rng.Uint64())
		u := a.Clone()
		u.UnionInPlace(b)
		if !u.Equal(a.Union(b)) {
			t.Fatalf("UnionInPlace mismatch at %d", i)
		}
		d := a.Clone()
		d.DiffInPlace(b)
		if !d.Equal(a.Diff(b)) {
			t.Fatalf("DiffInPlace mismatch at %d", i)
		}
	}
}

func BenchmarkUnionInPlace(b *testing.B) {
	x := New(256)
	y := New(256)
	for i := 0; i < 256; i += 3 {
		y.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.UnionInPlace(y)
	}
}

func BenchmarkSubsetOf(b *testing.B) {
	x := New(256)
	y := New(256)
	for i := 0; i < 256; i += 2 {
		y.Add(i)
		if i%4 == 0 {
			x.Add(i)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !x.SubsetOf(y) {
			b.Fatal("subset expected")
		}
	}
}
