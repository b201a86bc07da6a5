// Package combin enumerates the course combinations Algorithm 1 explores:
// all subsets W of the option set Y with 1 ≤ |W| ≤ m (line 7-9 of the
// paper's pseudocode).
//
// Enumeration order is deterministic — ascending subset size, then
// lexicographic by course index — so exploration output is reproducible
// and tests can assert exact graphs.
package combin

import (
	"math"
	"math/bits"

	"repro/internal/bitset"
)

// Scratch holds the working buffers ForEachCombination needs, so callers
// enumerating at every node of a large walk can reuse one allocation set
// instead of paying three makes per call. The zero value is ready to use.
// A Scratch must not be shared between concurrent enumerations (including
// a nested enumeration from inside fn — use a second Scratch for that).
type Scratch struct {
	members []int
	idx     []int
	comb    []int
}

func (s *Scratch) ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// ForEachCombination calls fn with every combination of the members of y
// of size 1..maxSize, in ascending-size lexicographic order. The slice
// passed to fn is reused between calls; fn must copy it to retain it.
// Enumeration stops early if fn returns false. maxSize ≤ 0 means no limit.
func ForEachCombination(y bitset.Set, maxSize int, fn func(comb []int) bool) {
	var s Scratch
	s.ForEachCombination(y, maxSize, fn)
}

// ForEachCombination is the allocation-free form of the package function,
// drawing its working buffers from the Scratch.
func (s *Scratch) ForEachCombination(y bitset.Set, maxSize int, fn func(comb []int) bool) {
	members := s.ints(&s.members, y.Len())
	members = members[:0]
	y.ForEach(func(i int) { members = append(members, i) })
	n := len(members)
	if n == 0 {
		return
	}
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	idx := s.ints(&s.idx, maxSize)
	comb := s.ints(&s.comb, maxSize)
	for k := 1; k <= maxSize; k++ {
		// Initial combination 0,1,...,k-1.
		for i := 0; i < k; i++ {
			idx[i] = i
		}
		for {
			for i := 0; i < k; i++ {
				comb[i] = members[idx[i]]
			}
			if !fn(comb[:k]) {
				return
			}
			// Advance to the next k-combination.
			i := k - 1
			for i >= 0 && idx[i] == n-k+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
}

// Subsets returns every non-empty subset of y with size at most maxSize as
// independent bitsets, in enumeration order. Intended for tests and small
// sets; the exploration hot path uses ForEachCombination.
func Subsets(y bitset.Set, maxSize int, capacity int) []bitset.Set {
	var out []bitset.Set
	ForEachCombination(y, maxSize, func(comb []int) bool {
		out = append(out, bitset.FromMembers(capacity, comb...))
		return true
	})
	return out
}

// Count returns the number of combinations ForEachCombination will
// enumerate: Σ_{i=1..m} C(|y|, i) — the per-node branching factor formula
// of paper §4.3. It saturates at math.MaxInt64 on overflow.
func Count(n, maxSize int) int64 {
	if n <= 0 {
		return 0
	}
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	var total int64
	for k := 1; k <= maxSize; k++ {
		c := Binomial(n, k)
		if c == math.MaxInt64 || total > math.MaxInt64-c {
			return math.MaxInt64
		}
		total += c
	}
	return total
}

// Binomial returns C(n, k), saturating at math.MaxInt64 on overflow.
// It is exact and allocation-free: the running product C(n−k+i, i) is
// formed in 128 bits and divided back to 64, and since that product never
// shrinks as i grows, the first one past MaxInt64 proves the result is.
func Binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := uint64(1)
	for i := 1; i <= k; i++ {
		hi, lo := bits.Mul64(res, uint64(n-k+i))
		if hi >= uint64(i) {
			return math.MaxInt64 // the quotient needs more than 64 bits
		}
		res, _ = bits.Div64(hi, lo, uint64(i))
		if res > math.MaxInt64 {
			return math.MaxInt64
		}
	}
	return int64(res)
}
