// Package bitset provides a compact, allocation-conscious set of small
// non-negative integers, used throughout CourseNavigator to represent the
// paper's course sets X (completed), Y (options) and W (selections).
//
// Catalogs index courses densely from 0, so a Set of a few machine words
// covers any realistic catalog, and the set algebra Algorithm 1 performs in
// its inner loop (union, difference, subset tests) compiles to word-parallel
// operations.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a bitset over the integers [0, capacity). The zero value is an
// empty set with zero capacity; most callers size sets with New.
//
// Sets are value-like: operations that return a Set never alias the
// receiver's storage unless documented otherwise (the In-Place variants).
type Set struct {
	words []uint64
}

// New returns an empty set able to hold members in [0, n).
func New(n int) Set {
	if n <= 0 {
		return Set{}
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromMembers returns a set sized for n containing exactly the given members.
// It panics if any member is outside [0, n).
func FromMembers(n int, members ...int) Set {
	s := New(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// CopyFrom replaces s's members with t's, reusing s's storage when it is
// large enough. After the call s.Equal(t) holds; s's capacity is the larger
// of the two.
func (s *Set) CopyFrom(t Set) {
	if len(t.words) > len(s.words) {
		s.grow(len(t.words)*wordBits - 1)
	}
	n := copy(s.words, t.words)
	for i := n; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// FromWords returns the set whose members are the bits of words, bit i of
// words[j] standing for member j·64+i. The set aliases words: writes
// through either are visible in the other. Flat storage that keeps many
// sets in one []uint64 uses it to hand one of them out without a copy.
func FromWords(words []uint64) Set {
	return Set{words: words}
}

// Words returns the set's storage in the layout FromWords reads. The
// slice aliases s; callers copy it to retain the members past a later
// write to s.
func (s Set) Words() []uint64 {
	return s.words
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if len(s.words) == 0 {
		return Set{}
	}
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// grow ensures the set can address bit i.
func (s *Set) grow(i int) {
	need := i/wordBits + 1
	if need <= len(s.words) {
		return
	}
	w := make([]uint64, need)
	copy(w, s.words)
	s.words = w
}

// Add inserts i into the set, growing capacity if needed. It panics on
// negative i.
func (s *Set) Add(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bitset: negative member %d", i))
	}
	s.grow(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set. Removing an absent member is a no-op.
func (s *Set) Remove(i int) {
	if i < 0 || i/wordBits >= len(s.words) {
		return
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is a member.
func (s Set) Contains(i int) bool {
	if i < 0 || i/wordBits >= len(s.words) {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Len returns the number of members (population count).
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Union returns s ∪ t as a new set.
func (s Set) Union(t Set) Set {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	out := make([]uint64, len(long))
	copy(out, long)
	for i, w := range short {
		out[i] |= w
	}
	return Set{words: out}
}

// UnionInPlace adds all members of t to s.
func (s *Set) UnionInPlace(t Set) {
	if len(t.words) > len(s.words) {
		s.grow(len(t.words)*wordBits - 1)
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// SetTo replaces s's members with exactly the given members, each in
// [0, n), reusing s's storage. Unlike FromMembers it never allocates once
// s has capacity for n, so a hot loop can rebuild one scratch set per
// iteration without touching the heap. It panics on out-of-range members.
func (s *Set) SetTo(n int, members []int) {
	need := (n + wordBits - 1) / wordBits
	if need > len(s.words) {
		s.words = make([]uint64, need)
	}
	w := s.words
	for i := range w {
		w[i] = 0
	}
	for _, m := range members {
		if m < 0 || m >= n {
			panic(fmt.Sprintf("bitset: member %d outside [0, %d)", m, n))
		}
		w[m/wordBits] |= 1 << (uint(m) % wordBits)
	}
}

// Intersect returns s ∩ t as a new set.
func (s Set) Intersect(t Set) Set {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = s.words[i] & t.words[i]
	}
	return Set{words: out}
}

// IntersectInPlace removes every member of s that is not in t.
func (s *Set) IntersectInPlace(t Set) {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &= t.words[i]
	}
	for i := n; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// Diff returns s − t as a new set.
func (s Set) Diff(t Set) Set {
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	n := len(out)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		out[i] &^= t.words[i]
	}
	return Set{words: out}
}

// DiffInPlace removes all members of t from s.
func (s *Set) DiffInPlace(t Set) {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= t.words[i]
	}
}

// IntersectLen returns |s ∩ t| without allocating the intersection set.
func (s Set) IntersectLen(t Set) int {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// DiffLen returns |s − t| without allocating the difference set.
func (s Set) DiffLen(t Set) int {
	n := 0
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		n += bits.OnesCount64(w &^ tw)
	}
	return n
}

// SubsetOf reports whether every member of s is in t.
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share any member.
func (s Set) Intersects(t Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and t have exactly the same members, regardless of
// capacity.
func (s Set) Equal(t Set) bool {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Members returns the members in increasing order.
func (s Set) Members() []int {
	return s.AppendMembers(make([]int, 0, s.Len()))
}

// AppendMembers appends the members to dst in increasing order and
// returns the extended slice, so a hot loop can list members into a
// reused buffer.
func (s Set) AppendMembers(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// ForEach calls fn for every member in increasing order.
func (s Set) ForEach(fn func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Min returns the smallest member, or -1 if the set is empty.
func (s Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest member, or -1 if the set is empty.
func (s Set) Max() int {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return wi*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// Clear removes all members, retaining capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// String renders the set as "{0, 3, 17}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// compactWords is the number of inline words in a CompactKey: sets whose
// members all lie below compactWords·64 = 256 need no allocation to key.
const compactWords = 4

// CompactKey is a comparable identity for a set's members, independent of
// capacity. Sets with no member ≥ 256 are encoded inline in four words with
// zero allocation; larger sets spill to the string form of Key. Two keys are
// == iff the sets they were taken from are Equal, so a CompactKey can be
// used directly as a map key — the engine's memo and intern tables do this
// to avoid the per-node string allocation Key incurs.
type CompactKey struct {
	w     [compactWords]uint64
	spill string
}

// CompactKey returns the comparable identity of s.
func (s Set) CompactKey() CompactKey {
	var k CompactKey
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	if n <= compactWords {
		copy(k.w[:], s.words[:n])
		return k
	}
	// A rare wide set (≥256 courses): fall back to the allocating string
	// key. The spill is non-empty exactly when words beyond the inline
	// window are set, so spilled and inline keys can never collide.
	k.spill = s.Key()
	return k
}

// Hash returns a 64-bit mix of the key, suitable for shard selection.
func (k CompactKey) Hash() uint64 {
	const m = 0x9e3779b97f4a7c15 // Fibonacci hashing multiplier
	h := uint64(0)
	for _, w := range k.w {
		h = (h ^ w) * m
		h ^= h >> 29
	}
	for i := 0; i < len(k.spill); i++ {
		h = (h ^ uint64(k.spill[i])) * m
	}
	return h ^ h>>32
}

// Key returns a compact string usable as a map key identifying the set's
// members (trailing zero words are excluded so capacity does not matter).
// It is used by the status-interning ablation to hash enrollment statuses.
func (s Set) Key() string {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	if n == 0 {
		return ""
	}
	b := make([]byte, 0, n*8)
	for _, w := range s.words[:n] {
		for sh := 0; sh < 64; sh += 8 {
			b = append(b, byte(w>>uint(sh)))
		}
	}
	return string(b)
}
