package explore

// minHeap is a generic binary min-heap ordered by less. Unlike
// container/heap it stores T directly — Push/Pop move concrete values, so
// pushing never boxes into an interface{} and the frontier's hot loop is
// allocation-free apart from slice growth, which doubles (see reserve and
// BenchmarkFrontierHeap).
type minHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func newMinHeap[T any](less func(a, b T) bool, capacity int) *minHeap[T] {
	return &minHeap[T]{items: make([]T, 0, capacity), less: less}
}

// Len returns the number of queued items.
func (h *minHeap[T]) Len() int { return len(h.items) }

// Push adds x and restores the heap order (sift-up).
func (h *minHeap[T]) Push(x T) {
	i := len(h.items)
	if i == cap(h.items) {
		h.items = growSlice(h.items, 1)
	}
	h.items = h.items[:i+1]
	h.items[i] = x
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// Pop removes and returns the minimum item (sift-down). It panics on an
// empty heap, like container/heap.
func (h *minHeap[T]) Pop() T {
	n := len(h.items) - 1
	top := h.items[0]
	h.items[0] = h.items[n]
	var zero T
	h.items[n] = zero // release references held by the vacated slot
	h.items = h.items[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}

// reserve returns s with room for n more elements, doubling its capacity
// when it must grow. append grows a large slice by ~1.25× a step, which
// allocates about five times the slice's final size over its growth;
// doubling allocates at most twice it.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return growSlice(s, n)
}

// growSlice is reserve's slow path, kept apart so reserve inlines.
func growSlice[T any](s []T, n int) []T {
	t := make([]T, len(s), max(2*cap(s), len(s)+n, 16))
	copy(t, s)
	return t
}
