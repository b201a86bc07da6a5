package explore

import (
	"errors"
	"sync"

	"repro/internal/bitset"
	"repro/internal/degree"
	"repro/internal/status"
)

// task is one unit of parallel counting work: a status whose subtree tally
// is still owed, its depth below the run's start (bounding re-splits), and
// the root→status spine so streamed path events carry full paths.
type task struct {
	st    status.Status
	depth int
	steps []Step
}

// subtask builds the child task for a selection out of t. The spine is
// copied with exact capacity so sibling tasks never share append growth.
func (t task) subtask(step Step, ch status.Status) task {
	steps := make([]Step, len(t.steps)+1)
	copy(steps, t.steps)
	steps[len(t.steps)] = step
	return task{st: ch, depth: t.depth + 1, steps: steps}
}

// workQueue is the LIFO work pool parallel workers draw from: counting
// workers pop subtree tasks, DAG-construction workers pop nodes owed an
// expansion. A worker that pops an item while the queue is starved is told
// so (hungry), the counting pool's signal to split the task one level and
// push the children back, redistributing a skewed subtree across idle
// workers instead of serialising the run.
type workQueue[T any] struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    []T
	inflight int
}

func newWorkQueue[T any](init []T) *workQueue[T] {
	q := &workQueue[T]{items: init}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// pop blocks until an item is available or all work has drained (ok =
// false). hungry reports that the queue was near-empty at pop time — the
// signal to split the item rather than process it in place.
func (q *workQueue[T]) pop(workers int) (t T, hungry, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && q.inflight > 0 {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		var zero T
		return zero, false, false
	}
	t = q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	q.inflight++
	return t, len(q.items) < workers, true
}

// push hands a split-off item back to the pool.
func (q *workQueue[T]) push(t T) {
	q.mu.Lock()
	q.items = append(q.items, t)
	q.mu.Unlock()
	q.cond.Signal()
}

// done marks a popped item complete; when the last in-flight item finishes
// with the queue empty, every waiting worker is released to exit.
func (q *workQueue[T]) done() {
	q.mu.Lock()
	q.inflight--
	if q.inflight == 0 && len(q.items) == 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// maxSplitDepth caps dynamic re-splitting; real trees are far shallower
// (one level per semester), so the cap only guards degenerate inputs.
const maxSplitDepth = 32

// countParallel is the counting/streaming walk fanned out across
// Options.Workers goroutines. The tree is first expanded breadth-first —
// serially, tallying any terminals — until the frontier holds enough
// independent subtrees to balance the workers (or a depth limit is hit);
// the frontier subtrees then become a shared work pool drained by one
// engine per worker, with starved workers re-splitting whatever they pop.
// The decomposition is exact: subtree path counts do not depend on
// exploration order.
//
// A run with a sink shares one mutex-serialised sink across the pool:
// events arrive in nondeterministic order, but the path multiset matches
// the serial walk exactly. A sink error from any worker stops the whole
// pool (ErrStopEmit via the StopSink reason) and the first error wins.
func (e *engine) countParallel(start status.Status, workers int) ([2]int64, error) {
	const preSplitDepth = 3
	targetTasks := workers * 8

	var total [2]int64
	frontier := []task{{st: start}}
	for depth := 0; depth < preSplitDepth && len(frontier) < targetTasks && len(frontier) > 0; depth++ {
		var next []task
		for _, t := range frontier {
			if e.ctl.interrupted() {
				return total, nil
			}
			c, err := e.expandOnce(t.st, t.steps, func(w bitset.Set, ch status.Status) {
				next = append(next, t.subtask(Step{Term: t.st.Term, Selection: w}, ch))
			})
			total[0] += c[0]
			total[1] += c[1]
			if err != nil {
				return total, err
			}
		}
		frontier = next
	}
	if len(frontier) == 0 || e.ctl.interrupted() {
		return total, nil
	}
	e.res.Parallel = true

	var sink Sink
	if e.sink != nil {
		sink = &lockedSink{ctl: e.ctl, next: e.sink}
	}
	queue := newWorkQueue(frontier)

	var mu sync.Mutex // guards total, firstErr and the merged Result tallies
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := newEngine(e.cat, e.end, degree.Unwrap(e.rawGoal), e.rawPruners, e.opt)
			sub.ctl = e.ctl // one control spans the whole worker pool
			sub.sink = sink
			var local [2]int64
			var errLocal error
			for {
				t, hungry, ok := queue.pop(workers)
				if !ok {
					break
				}
				if e.ctl.interrupted() || errLocal != nil {
					// Drain without counting so every worker (including
					// ones blocked in pop) exits promptly on cancel.
					queue.done()
					continue
				}
				var c [2]int64
				var err error
				if hungry && t.depth < maxSplitDepth {
					// Redistribute: expand one level and hand the
					// children back to the pool for idle workers.
					c, err = sub.expandOnce(t.st, t.steps, func(w bitset.Set, ch status.Status) {
						queue.push(t.subtask(Step{Term: t.st.Term, Selection: w}, ch))
					})
				} else {
					sub.spine = t.steps
					c, err = sub.walk(t.st, -1)
				}
				local[0] += c[0]
				local[1] += c[1]
				if err != nil && !errors.Is(err, errStopRun) {
					errLocal = err
					if e.ctl != nil {
						// Halt the pool; the sink asked to stop or failed.
						e.ctl.stop(stopSink)
					}
				}
				queue.done()
			}
			mu.Lock()
			total[0] += local[0]
			total[1] += local[1]
			e.res.Nodes += sub.res.Nodes
			e.res.Edges += sub.res.Edges
			e.res.PrunedTime += sub.res.PrunedTime
			e.res.PrunedAvail += sub.res.PrunedAvail
			e.emitPaths += sub.emitPaths
			e.emitGoal += sub.emitGoal
			if errLocal != nil && firstErr == nil {
				firstErr = errLocal
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total, firstErr
}
