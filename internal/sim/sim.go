// Package sim provides the discrete-event simulation substrate: a cycle
// type, a deterministic event queue, and timeline resources used to model
// contention for DRAM banks and data buses.
//
// The simulator composes latencies on resource timelines rather than
// ticking every cycle: a component that is busy until cycle T serves a
// request arriving at cycle A starting at max(A, T). This preserves
// cycle-accurate ordering and queueing delay at a fraction of the cost of
// a per-cycle loop. The event queue orders simultaneous events by insertion
// sequence so simulations are fully deterministic.
package sim

import (
	"container/heap"
	"fmt"

	"taglessdram/internal/flat"
)

// Tick is a point in simulated time, measured in CPU cycles.
type Tick uint64

// Handler is a reusable event callback. Unlike a closure passed to At, a
// Handler is bound once and receives its per-firing payload through the
// Event's A0/A1/B/P fields, so recurring callbacks schedule without
// allocating.
type Handler interface {
	OnEvent(now Tick, e *Event)
}

// Event is a scheduled callback. Events are pooled: once an event fires or
// is cancelled, its *Event handle is invalid — the kernel may recycle the
// object for a later At/Schedule call. Holding a handle past that point and
// cancelling it can affect an unrelated, recycled event.
type Event struct {
	When Tick
	fn   func(Tick)
	h    Handler

	// Payload registers for Handler events: two scalars, a flag, and one
	// reference. They are cleared when the event returns to the pool.
	A0, A1 uint64
	B      bool
	P      any

	seq uint64
	idx int
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].When != h[j].When {
		return h[i].When < h[j].When
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1 // the event is off the heap, whatever the caller does next
	*h = old[:n-1]
	return e
}

// noEvent is the cached next-event time of an empty queue.
const noEvent = ^Tick(0)

// Kernel owns simulated time and the pending-event queue.
type Kernel struct {
	now      Tick
	next     Tick // cached k.events[0].When, noEvent when empty
	seq      uint64
	events   eventHeap
	pool     []*Event // free list of fired/cancelled events
	executed uint64
	tracer   *Tracer
}

// NewKernel returns a kernel at cycle zero with no pending events.
func NewKernel() *Kernel { return &Kernel{next: noEvent} }

// syncNext refreshes the cached earliest-deadline after a heap mutation.
func (k *Kernel) syncNext() {
	if len(k.events) > 0 {
		k.next = k.events[0].When
	} else {
		k.next = noEvent
	}
}

// Now returns the current simulated cycle.
func (k *Kernel) Now() Tick { return k.now }

// Pending returns the number of scheduled events.
func (k *Kernel) Pending() int { return len(k.events) }

// Executed returns the number of events run since construction.
func (k *Kernel) Executed() uint64 { return k.executed }

// SetTracer attaches (or, with nil, detaches) an event tracer. Every
// subsequently fired event is recorded until the tracer's window fills.
// Tracing is observational only: it never changes event order or time.
func (k *Kernel) SetTracer(t *Tracer) { k.tracer = t }

// get takes an event from the free list, or allocates one.
func (k *Kernel) get() *Event {
	if n := len(k.pool); n > 0 {
		e := k.pool[n-1]
		k.pool[n-1] = nil
		k.pool = k.pool[:n-1]
		return e
	}
	return &Event{}
}

// release clears an event's callback and payload and returns it to the free
// list. Clearing matters: a recycled event must never be able to fire a
// stale callback or leak a stale reference through P.
func (k *Kernel) release(e *Event) {
	*e = Event{idx: -1}
	k.pool = append(k.pool, e)
}

// schedule inserts a prepared event, assigning its sequence number.
func (k *Kernel) schedule(e *Event, when Tick) *Event {
	if when < k.now {
		when = k.now
	}
	e.When = when
	e.seq = k.seq
	k.seq++
	heap.Push(&k.events, e)
	k.syncNext()
	return e
}

// At schedules fn to run at the given absolute cycle. Scheduling in the
// past runs the event at the current cycle instead (never travels back).
func (k *Kernel) At(when Tick, fn func(Tick)) *Event {
	e := k.get()
	e.fn = fn
	return k.schedule(e, when)
}

// After schedules fn to run delay cycles from now.
func (k *Kernel) After(delay Tick, fn func(Tick)) *Event {
	return k.At(k.now+delay, fn)
}

// Schedule schedules a Handler with its payload at the given absolute
// cycle. The event comes from the kernel's free list, so steady-state
// scheduling of bound handlers performs no allocation.
func (k *Kernel) Schedule(when Tick, h Handler, a0, a1 uint64, b bool, p any) *Event {
	e := k.get()
	e.h = h
	e.A0, e.A1, e.B, e.P = a0, a1, b, p
	return k.schedule(e, when)
}

// Cancel removes a pending event and recycles it. Cancelling an event
// whose handle has already fired or been cancelled is a no-op only as long
// as the object has not been recycled; do not hold handles past the
// event's lifetime.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.idx < 0 || e.idx >= len(k.events) || k.events[e.idx] != e {
		return
	}
	heap.Remove(&k.events, e.idx)
	k.syncNext()
	k.release(e)
}

// Step runs the next pending event, advancing time to it. It reports
// whether an event was run.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := heap.Pop(&k.events).(*Event)
	k.syncNext()
	k.now = e.When
	k.executed++
	if k.tracer != nil {
		k.tracer.record(k.now, e)
	}
	if e.h != nil {
		e.h.OnEvent(k.now, e)
	} else {
		e.fn(k.now)
	}
	k.release(e)
	return true
}

// Run executes events until the queue is empty or the cycle limit is
// exceeded, and returns the number of events executed. A limit of zero
// means no limit.
func (k *Kernel) Run(limit Tick) int {
	n := 0
	for len(k.events) > 0 {
		if limit != 0 && k.events[0].When > limit {
			break
		}
		k.Step()
		n++
	}
	return n
}

// Advance moves time forward to the given cycle without running events
// scheduled beyond it. Events due at or before the target fire first.
// Advancing to the past is a no-op.
func (k *Kernel) Advance(to Tick) {
	if to >= k.next {
		k.advanceSlow(to)
		return
	}
	if to > k.now {
		k.now = to
	}
}

// advanceSlow is Advance's event-draining path, split out so the common
// empty-queue Advance call inlines into the per-reference loop.
func (k *Kernel) advanceSlow(to Tick) {
	for len(k.events) > 0 && k.events[0].When <= to {
		k.Step()
	}
	if to > k.now {
		k.now = to
	}
}

// Visit hands the kernel's checkpoint state to c: the clock, the event
// sequence number and the executed-event count. Only a quiesced kernel
// has an image — pending events have none — so either side fails while
// events are queued. Run the kernel dry first: every recurring daemon in
// this simulator reschedules itself only while it has work.
func (k *Kernel) Visit(c *flat.Codec) {
	if len(k.events) > 0 {
		c.Fail(fmt.Errorf("sim: %d pending events have no image", len(k.events)))
		return
	}
	c.U64((*uint64)(&k.now))
	c.U64(&k.seq)
	c.U64(&k.executed)
}

// Resource is a serially reusable unit (a DRAM bank, a data bus): at most
// one request occupies it at a time, and requests are served in arrival
// order at the resource.
type Resource struct {
	freeAt Tick
	// Busy accumulates total occupied cycles, for utilization metrics.
	Busy Tick
}

// FreeAt returns the cycle at which the resource next becomes idle.
func (r *Resource) FreeAt() Tick { return r.freeAt }

// Visit hands the resource's timeline to c: when it frees. Busy is a
// statistic, not state.
func (r *Resource) Visit(c *flat.Codec) {
	c.U64((*uint64)(&r.freeAt))
}

// Acquire reserves the resource for `dur` cycles for a request arriving at
// `at`. It returns the cycle at which service starts (≥ at) — the caller's
// request completes at start+dur.
func (r *Resource) Acquire(at, dur Tick) (start Tick) {
	start = at
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + dur
	r.Busy += dur
	return start
}

// ReserveUntil blocks the resource until the given absolute cycle without
// accounting busy time (used for refresh-like blackouts or warm-up).
func (r *Resource) ReserveUntil(t Tick) {
	if t > r.freeAt {
		r.freeAt = t
	}
}

// Occupy marks the resource busy for the interval [from, until) computed by
// the caller, extending the free time and accounting utilization. It is used
// when occupancy depends on other resources (e.g. a bank held open until its
// data-bus transfer completes).
func (r *Resource) Occupy(from, until Tick) {
	if until > r.freeAt {
		r.freeAt = until
	}
	if until > from {
		r.Busy += until - from
	}
}

// Utilization returns Busy as a fraction of elapsed cycles (0 when the
// elapsed window is empty).
func (r *Resource) Utilization(elapsed Tick) float64 {
	if elapsed == 0 {
		return 0
	}
	u := float64(r.Busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// MaxTick returns the larger of a and b.
func MaxTick(a, b Tick) Tick {
	if a > b {
		return a
	}
	return b
}
