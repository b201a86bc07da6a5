package explore

import (
	"sync"
	"sync/atomic"

	"repro/internal/degree"
)

// Parallel what-if construction: the build proceeds level by level —
// every edge advances the semester, so level d+1's frontier is exactly the
// expandable statuses level d discovered — and within a level the
// expansions are independent apart from interning. Workers share the
// 64-way lock-striped interner (dagInternShards) and the run control;
// everything else (engine, arena, node slab, scratch sets, next-level
// list) is worker-private and merged after the pool joins. Node identity
// is settled under the shard lock (one creator per distinct status), so
// the structural tallies — Nodes, Edges, the prune split — are
// deterministic and identical to the serial builder's. Counting runs have
// their own parallel build over flat levels (dag_count.go).

// buildParallel drains the levels across a worker pool. Only what-if runs
// build the node graph in parallel (streaming unfolds need the serial
// emission order), so no sink is involved.
func (b *dagBuilder) buildParallel(workers int) {
	if len(b.next) == 0 {
		return
	}
	e := b.e
	shared := &dagInternShards{}
	b.tab.each(shared.put)
	// Keep the shared interner reachable from the root builder: retally
	// resolves children against it after the pool joins.
	b.shared = shared
	e.res.Parallel = true

	ws := make([]*dagBuilder, workers)
	for i := range ws {
		sub := newEngine(e.cat, e.end, degree.Unwrap(e.rawGoal), e.rawPruners, e.opt)
		sub.memo = nil
		sub.ctl = e.ctl // one control spans the whole pool
		w := newDAGBuilder(sub, b.mode)
		w.shared = shared
		ws[i] = w
	}

	level := b.next
	b.next = nil
	for len(level) > 0 {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *dagBuilder) {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(level) {
						return
					}
					if !e.ctl.interrupted() {
						w.expand(level[i])
					}
				}
			}(w)
		}
		wg.Wait()
		level = level[:0]
		for _, w := range ws {
			level = append(level, w.next...)
			w.next = w.next[:0]
		}
	}

	for _, w := range ws {
		for d, ns := range w.byDepth {
			for d >= len(b.byDepth) {
				b.byDepth = append(b.byDepth, nil)
			}
			b.byDepth[d] = append(b.byDepth[d], ns...)
		}
		e.res.Nodes += w.e.res.Nodes
		e.res.Edges = satAdd(e.res.Edges, w.e.res.Edges)
		e.res.PrunedTime += w.e.res.PrunedTime
		e.res.PrunedAvail += w.e.res.PrunedAvail
	}
}
