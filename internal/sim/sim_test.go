package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelRunsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []Tick
	for _, d := range []Tick{30, 10, 20} {
		k.After(d, func(now Tick) { got = append(got, now) })
	}
	k.Run(0)
	want := []Tick{10, 20, 30}
	if len(got) != 3 {
		t.Fatalf("ran %d events, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("now = %d, want 30", k.Now())
	}
}

func TestKernelFIFOAmongSimultaneous(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		k.At(7, func(Tick) { got = append(got, i) })
	}
	k.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events out of insertion order: %v", got)
		}
	}
}

func TestKernelScheduleInPastClamps(t *testing.T) {
	k := NewKernel()
	k.At(100, func(Tick) {})
	k.Run(0)
	fired := Tick(0)
	k.At(50, func(now Tick) { fired = now }) // in the past
	k.Run(0)
	if fired != 100 {
		t.Fatalf("past event fired at %d, want clamped to 100", fired)
	}
}

func TestKernelRunLimit(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.At(10, func(Tick) { ran++ })
	k.At(20, func(Tick) { ran++ })
	n := k.Run(15)
	if n != 1 || ran != 1 {
		t.Fatalf("ran %d events under limit, want 1", ran)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Run(0)
	if ran != 2 {
		t.Fatalf("ran %d events total, want 2", ran)
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(10, func(Tick) { fired = true })
	k.Cancel(e)
	k.Cancel(e) // double cancel is a no-op
	k.Cancel(nil)
	k.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestKernelCancelOneOfMany(t *testing.T) {
	k := NewKernel()
	var got []int
	var keep []*Event
	for i := 0; i < 10; i++ {
		i := i
		keep = append(keep, k.At(Tick(i), func(Tick) { got = append(got, i) }))
	}
	k.Cancel(keep[3])
	k.Cancel(keep[7])
	k.Run(0)
	if len(got) != 8 {
		t.Fatalf("ran %d, want 8: %v", len(got), got)
	}
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestKernelAdvance(t *testing.T) {
	k := NewKernel()
	var fired []Tick
	k.At(5, func(now Tick) { fired = append(fired, now) })
	k.At(15, func(now Tick) { fired = append(fired, now) })
	k.Advance(10)
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("advance(10) fired %v, want [5]", fired)
	}
	if k.Now() != 10 {
		t.Fatalf("now = %d, want 10", k.Now())
	}
	k.Advance(3) // backwards is a no-op
	if k.Now() != 10 {
		t.Fatalf("now moved backwards to %d", k.Now())
	}
	k.Run(0)
	if len(fired) != 2 || fired[1] != 15 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	k := NewKernel()
	depth := 0
	var recurse func(Tick)
	recurse = func(Tick) {
		depth++
		if depth < 5 {
			k.After(2, recurse)
		}
	}
	k.After(1, recurse)
	k.Run(0)
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if k.Now() != 9 { // 1 + 4*2
		t.Fatalf("now = %d, want 9", k.Now())
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	s1 := r.Acquire(0, 10)
	s2 := r.Acquire(0, 10)
	s3 := r.Acquire(25, 5)
	if s1 != 0 || s2 != 10 {
		t.Fatalf("starts = %d,%d, want 0,10", s1, s2)
	}
	if s3 != 25 { // resource free at 20, request arrives at 25
		t.Fatalf("s3 = %d, want 25", s3)
	}
	if r.FreeAt() != 30 {
		t.Fatalf("freeAt = %d, want 30", r.FreeAt())
	}
	if r.Busy != 25 {
		t.Fatalf("busy = %d, want 25", r.Busy)
	}
}

func TestResourceReserveUntil(t *testing.T) {
	var r Resource
	r.ReserveUntil(50)
	if s := r.Acquire(10, 5); s != 50 {
		t.Fatalf("start = %d, want 50", s)
	}
	r.ReserveUntil(20) // earlier than freeAt: no-op
	if r.FreeAt() != 55 {
		t.Fatalf("freeAt = %d, want 55", r.FreeAt())
	}
}

func TestResourceUtilization(t *testing.T) {
	var r Resource
	r.Acquire(0, 30)
	if u := r.Utilization(60); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Fatalf("empty-window utilization = %v, want 0", u)
	}
	if u := r.Utilization(10); u != 1 {
		t.Fatalf("clamped utilization = %v, want 1", u)
	}
}

// Property: a resource never double-books — service intervals returned by
// Acquire are non-overlapping and in order.
func TestResourceNonOverlapProperty(t *testing.T) {
	f := func(arrivals []uint16, durs []uint8) bool {
		var r Resource
		n := len(arrivals)
		if len(durs) < n {
			n = len(durs)
		}
		prevEnd := Tick(0)
		for i := 0; i < n; i++ {
			at := Tick(arrivals[i])
			dur := Tick(durs[i]%50 + 1)
			start := r.Acquire(at, dur)
			if start < at || start < prevEnd {
				return false
			}
			prevEnd = start + dur
		}
		return r.FreeAt() == prevEnd || n == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the kernel fires every scheduled event exactly once, in
// non-decreasing time order.
func TestKernelOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var fired []Tick
		for _, d := range delays {
			k.After(Tick(d), func(now Tick) { fired = append(fired, now) })
		}
		k.Run(0)
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// Fired times must be a permutation of the delays.
		want := make([]Tick, len(delays))
		for i, d := range delays {
			want[i] = Tick(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxTick(t *testing.T) {
	if MaxTick(3, 5) != 5 || MaxTick(5, 3) != 5 {
		t.Error("MaxTick wrong")
	}
}
