package explore

import (
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/status"
)

// TestNodeSlabGrowthKeepsPointers: chunks grow 64, 128, … up to
// dagChunk and then stay there; every handed-out pointer stays valid
// across the growth, and the chunks list the nodes in creation order.
func TestNodeSlabGrowthKeepsPointers(t *testing.T) {
	var s nodeSlab
	const n = 3*dagChunk + 77
	ptrs := make([]*dagNode, n)
	for i := range ptrs {
		ptrs[i] = s.alloc()
		ptrs[i].minTake = int32(i)
	}
	for i, p := range ptrs {
		if p.minTake != int32(i) {
			t.Fatalf("node %d reads %d after growth", i, p.minTake)
		}
	}
	want, i := dagChunkMin, 0
	for k, c := range s.chunks {
		if cap(c) != want {
			t.Errorf("chunk %d has capacity %d, want %d", k, cap(c), want)
		}
		want = min(2*want, dagChunk)
		for j := range c {
			if &c[j] != ptrs[i] {
				t.Fatalf("chunk %d slot %d is not node %d", k, j, i)
			}
			i++
		}
	}
	if i != n {
		t.Errorf("chunks hold %d nodes, want %d", i, n)
	}
}

// TestSmallDAGQueryAllocation: a Brandeis-sized countOnly query interns
// a handful of statuses, so the builder's storage starts small instead
// of zeroing a full 8192-node chunk.
func TestSmallDAGQueryAllocation(t *testing.T) {
	cat := brandeis.Catalog()
	start := status.New(cat, brandeis.StartForSemesters(3), bitset.New(cat.Len()))
	opt := Options{MaxPerTerm: brandeis.MaxPerTerm, Substrate: SubstrateDAG}
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := DeadlineCount(cat, start, brandeis.EndTerm(), opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > 64<<10 {
		t.Errorf("small DAG count allocated %d bytes, want ≤ 64 KiB", best)
	}
}
