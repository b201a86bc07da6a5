package explore

import "repro/internal/status"

// This file holds the DAG substrate's storage primitives. The profile of a
// straightforward map[status.MapKey]*dagNode builder is dominated by the
// runtime map (hashing and probing 56-byte keys across tens of millions of
// entries) and by the garbage collector chasing one heap allocation per
// node; at d=6 on the evaluation catalog that builder loses to the plain
// tree walk despite doing 15x less classification work. The substrate
// therefore brings its own storage:
//
//   - nodeSlab: chunked, pointer-stable bulk allocation of nodes, so a
//     multi-million-node build costs thousands of allocations, not millions.
//   - internTable: an open-addressed hash table with the 8-byte hashes in
//     their own probe array (8 slots per cache line) and the key/pointer
//     payload touched only on a hash match, so a probe costs ~1 cache miss
//     and a hit ~2 — versus several for a runtime map at this key size.
//
// Both serve only the streaming DAG builder, whose unfold needs edges and
// whole statuses. Counting — the forward DP and the shared counter behind
// what-if and cohorts — keeps flat per-level records (dag_count.go).

// Node slab chunks grow geometrically from dagChunkMin to dagChunk nodes.
// At 120 bytes per dagNode, a query that interns a dozen statuses
// allocates one 7.5 KiB chunk and one that interns a few hundred about
// 52 KiB, not the 960 KiB of a capped chunk, while a multi-million-node
// build still amortises allocation over 8192-node chunks.
const (
	dagChunkMin = 1 << 6
	dagChunk    = 1 << 13
)

// nodeSlab bulk-allocates nodes in chunks. Chunks are never
// reallocated, so node pointers stay valid for the life of the build, and
// iterating the chunks visits every allocated node in creation order.
type nodeSlab struct {
	chunks [][]dagNode
}

func (s *nodeSlab) alloc() *dagNode {
	k := len(s.chunks)
	if k == 0 || len(s.chunks[k-1]) == cap(s.chunks[k-1]) {
		size := dagChunkMin
		if k > 0 {
			size = min(2*cap(s.chunks[k-1]), dagChunk)
		}
		s.chunks = append(s.chunks, make([]dagNode, 0, size))
	}
	c := &s.chunks[len(s.chunks)-1]
	*c = (*c)[:len(*c)+1]
	return &(*c)[len(*c)-1]
}

// dagHash maps an interning key to a nonzero probe hash (zero marks an
// empty slot in internTable's probe array).
func dagHash(k status.MapKey) uint64 {
	h := k.Hash()
	if h == 0 {
		return 1
	}
	return h
}

// internSlot is an internTable payload entry: the full key (verified on
// hash match, so a 64-bit hash collision can never merge two distinct
// statuses) and the interned node.
type internSlot struct {
	key status.MapKey
	n   *dagNode
}

// internTable is the open-addressed status interner: linear probing over
// the hashes array, payload verified only on a hash match. Entries are
// never deleted, so no tombstones are needed. The zero value is an empty
// table ready for use.
type internTable struct {
	mask   uint64
	hashes []uint64 // probe array; 0 = empty slot
	slots  []internSlot
	n      int
}

// internMinSize is a fresh table's slot count; growth doubles it. It is
// kept small because most queries intern a few dozen statuses.
const internMinSize = 1 << 6

// lookup returns the node interned under (h, k), or nil.
func (t *internTable) lookup(h uint64, k status.MapKey) *dagNode {
	if t.n == 0 {
		return nil
	}
	i := h & t.mask
	for {
		switch hh := t.hashes[i]; {
		case hh == 0:
			return nil
		case hh == h && t.slots[i].key == k:
			return t.slots[i].n
		}
		i = (i + 1) & t.mask
	}
}

// insert adds (h, k) → n. The key must not already be present (callers
// always lookup first); growth keeps the load factor under 3/4.
func (t *internTable) insert(h uint64, k status.MapKey, n *dagNode) {
	if (t.n+1)*4 > len(t.hashes)*3 {
		t.grow()
	}
	i := h & t.mask
	for t.hashes[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.hashes[i] = h
	t.slots[i] = internSlot{key: k, n: n}
	t.n++
}

func (t *internTable) grow() {
	size := internMinSize
	if len(t.hashes) > 0 {
		size = len(t.hashes) * 2
	}
	oldH, oldS := t.hashes, t.slots
	t.hashes = make([]uint64, size)
	t.slots = make([]internSlot, size)
	t.mask = uint64(size - 1)
	for j, h := range oldH {
		if h == 0 {
			continue
		}
		i := h & t.mask
		for t.hashes[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.hashes[i] = h
		t.slots[i] = oldS[j]
	}
}
