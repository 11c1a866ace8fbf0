package sim

// Queue is a bounded FIFO whose items become visible to the consumer a
// configurable number of cycles after they are enqueued. It is the only
// sanctioned communication channel between components: because an item
// pushed during cycle N is not poppable until at least N+1, tick order
// within a cycle can never create zero-latency paths.
//
// Queue is generic so that component code stays fully typed.
type Queue[T any] struct {
	items []queueItem[T]
	head  int // index of the logical front within items
	cap   int
	delay Cycle
	// nextReady caches the head item's visibility cycle (CycleMax when
	// empty) so NextReady is a field read and wake recomputation after
	// a push is O(1).
	nextReady Cycle
	// waker, when set, re-arms the consuming ticker whenever a push
	// makes the queue transition empty -> non-empty. Pushes onto a
	// non-empty queue cannot lower NextReady (FIFO visibility follows
	// the head), so the consumer is already armed early enough.
	waker *Waker
	// probe, when set, observes the depth after every successful push
	// (timeline occupancy tracks). Unset, it costs one nil check.
	probe func(at Cycle, depth int)
}

type queueItem[T any] struct {
	v       T
	readyAt Cycle
}

// NewQueue creates a queue holding at most capacity items. Items pushed
// at cycle N become poppable at cycle N+delay (delay is clamped to a
// minimum of 1 to preserve determinism). capacity <= 0 means unbounded.
func NewQueue[T any](capacity int, delay Cycle) *Queue[T] {
	if delay < 1 {
		delay = 1
	}
	return &Queue[T]{cap: capacity, delay: delay, nextReady: CycleMax}
}

// SetWaker attaches the consuming ticker's waker. After this, any push
// that makes the queue go from empty to non-empty wakes the consumer
// at the pushed item's ready cycle. A component's SetWaker forwards
// the engine-provided waker to each of its input queues.
func (q *Queue[T]) SetWaker(w *Waker) { q.waker = w }

// SetDepthProbe attaches an observer called with the queue depth after
// every successful push (at the pushed item's visibility cycle). Used
// by the timeline's occupancy tracks; pass nil to detach.
func (q *Queue[T]) SetDepthProbe(fn func(at Cycle, depth int)) { q.probe = fn }

// Len returns the number of items in the queue (ready or not).
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Cap returns the queue capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.cap }

// Full reports whether another Push would be rejected.
func (q *Queue[T]) Full() bool { return q.cap > 0 && q.Len() >= q.cap }

// Space returns how many more items fit; a very large number if unbounded.
func (q *Queue[T]) Space() int {
	if q.cap <= 0 {
		return int(^uint(0) >> 1)
	}
	return q.cap - q.Len()
}

// Push enqueues v at time now, to become visible at now+delay. It
// reports false (and drops nothing — caller keeps v) when full.
func (q *Queue[T]) Push(v T, now Cycle) bool {
	return q.PushAt(v, now+q.delay)
}

// PushAt enqueues v to become visible at the given absolute cycle.
// Visibility never reorders items: an item is poppable only after every
// item ahead of it has been popped, and no earlier than readyAt.
func (q *Queue[T]) PushAt(v T, readyAt Cycle) bool {
	if q.Full() {
		return false
	}
	if q.head == len(q.items) { // empty -> non-empty: new head
		q.nextReady = readyAt
		q.waker.Wake(readyAt)
	}
	q.items = append(q.items, queueItem[T]{v: v, readyAt: readyAt})
	if q.probe != nil {
		q.probe(readyAt, q.Len())
	}
	return true
}

// CanPop reports whether the head item exists and is ready at time now.
func (q *Queue[T]) CanPop(now Cycle) bool {
	return q.Len() > 0 && q.items[q.head].readyAt <= now
}

// Peek returns the head item without removing it. ok is false when the
// head is missing or not yet ready.
func (q *Queue[T]) Peek(now Cycle) (v T, ok bool) {
	if !q.CanPop(now) {
		return v, false
	}
	return q.items[q.head].v, true
}

// Pop removes and returns the head item if it is ready at time now.
func (q *Queue[T]) Pop(now Cycle) (v T, ok bool) {
	if !q.CanPop(now) {
		return v, false
	}
	return q.PopReady(), true
}

// PopReady removes and returns the head item without re-checking
// readiness. It is the fast path for the ubiquitous Peek-then-Pop and
// CanPop-then-Pop patterns, which otherwise evaluate CanPop twice per
// dequeue. The caller must have established readiness at the current
// cycle (via CanPop or Peek) since the last mutation; calling it on an
// empty queue panics.
func (q *Queue[T]) PopReady() T {
	v := q.items[q.head].v
	var zero queueItem[T]
	q.items[q.head] = zero // release references for the GC
	q.head++
	if q.head == len(q.items) {
		q.nextReady = CycleMax
	} else {
		q.nextReady = q.items[q.head].readyAt
	}
	q.compact()
	return v
}

// compact reclaims the popped prefix once it dominates the backing
// array, keeping amortized O(1) pops without unbounded growth.
func (q *Queue[T]) compact() {
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
		return
	}
	if q.head > 32 && q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		// Clear the tail so released items do not leak.
		var zero queueItem[T]
		for i := n; i < len(q.items); i++ {
			q.items[i] = zero
		}
		q.items = q.items[:n]
		q.head = 0
	}
}

// NextReady returns the cycle at which the head item becomes poppable,
// or CycleMax when the queue is empty. Used for engine wake hints.
func (q *Queue[T]) NextReady() Cycle { return q.nextReady }

// All returns the queued values in order (ready or not). The returned
// slice is freshly allocated; mutating it does not affect the queue.
// Intended for inspection in tests and candidate searches.
func (q *Queue[T]) All() []T {
	out := make([]T, q.Len())
	for i, it := range q.items[q.head:] {
		out[i] = it.v
	}
	return out
}

// Get returns the item at index i (0 = head) without removing it,
// regardless of readiness.
func (q *Queue[T]) Get(i int) (v T, ok bool) {
	if i < 0 || i >= q.Len() {
		return v, false
	}
	return q.items[q.head+i].v, true
}

// RemoveAt removes and returns the item at index i (0 = head) regardless
// of readiness. Used by the stitch engine, which may pull candidates
// from the middle of a partition.
func (q *Queue[T]) RemoveAt(i int) (v T, ok bool) {
	if i < 0 || i >= q.Len() {
		return v, false
	}
	j := q.head + i
	v = q.items[j].v
	copy(q.items[j:], q.items[j+1:])
	q.items = q.items[:len(q.items)-1]
	if q.head == len(q.items) {
		q.nextReady = CycleMax
	} else if i == 0 {
		q.nextReady = q.items[q.head].readyAt
	}
	return v, true
}

// ReadyAt returns the visibility cycle of the item at index i.
func (q *Queue[T]) ReadyAt(i int) Cycle {
	return q.items[q.head+i].readyAt
}
