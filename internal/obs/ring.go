package obs

// Ring is the bounded observation store every probe keeps its records in:
// the flit tracer, the cycle-windowed time series and the service's span
// log. It appends until full, then overwrites the oldest entry and counts it
// in Dropped. Storage is allocated once, so a warm Push never allocates. A
// Ring is not safe for concurrent use; a probe shared across goroutines
// guards it with its own lock.
type Ring[T any] struct {
	buf     []T // grows to cap, then wraps
	head    int // index of the oldest entry once wrapped
	dropped uint64
}

// NewRing returns a ring retaining up to capacity entries; it panics on a
// capacity that is not positive.
func NewRing[T any](capacity int) Ring[T] {
	if capacity <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return Ring[T]{buf: make([]T, 0, capacity)}
}

// Push appends v, evicting the oldest entry when the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	r.dropped++
}

// Len returns the number of retained entries.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Dropped returns how many entries the bound evicted.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// Values returns the retained entries oldest first (a copy; safe to keep).
// Reporting-path only: it allocates.
func (r *Ring[T]) Values() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
