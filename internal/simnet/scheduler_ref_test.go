package simnet

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refScheduler is the pre-wheel scheduler — a single 4-ary min-heap over
// a slot arena with lazy cancellation — kept verbatim as the ordering
// oracle for the timing wheel: same seed, same operation sequence, the
// two must fire identical (at, seq) streams. It doubles as the heap
// baseline leg of BenchmarkTimerChurn1M.
type refScheduler struct {
	now       time.Duration
	seq       uint64
	arena     []refSlot
	free      []int32
	heap      []heapEntry
	live      int
	cancelled int
	executed  uint64
}

type refSlot struct {
	fn    func()
	gen   uint32
	state uint8
}

type refTimer struct {
	s    *refScheduler
	slot int32
	gen  uint32
}

func (t refTimer) Cancel() bool {
	s := t.s
	if s == nil {
		return false
	}
	sl := &s.arena[t.slot]
	if sl.gen != t.gen || sl.state != slotPending {
		return false
	}
	sl.state = slotCancelled
	sl.fn = nil
	s.live--
	s.cancelled++
	s.refMaybeCompact()
	return true
}

func (t refTimer) Pending() bool {
	s := t.s
	if s == nil {
		return false
	}
	sl := &s.arena[t.slot]
	return sl.gen == t.gen && sl.state == slotPending
}

func (s *refScheduler) alloc(fn func()) int32 {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.arena = append(s.arena, refSlot{})
		slot = int32(len(s.arena) - 1)
	}
	sl := &s.arena[slot]
	sl.fn = fn
	sl.state = slotPending
	s.live++
	return slot
}

func (s *refScheduler) freeSlot(slot int32) {
	sl := &s.arena[slot]
	sl.gen++
	sl.state = slotFree
	sl.fn = nil
	s.free = append(s.free, slot)
}

func (s *refScheduler) At(t time.Duration, fn func()) refTimer {
	if t < s.now {
		t = s.now
	}
	slot := s.alloc(fn)
	s.seq++
	s.heap = heapPush(s.heap, heapEntry{at: t, seq: s.seq, slot: slot})
	return refTimer{s: s, slot: slot, gen: s.arena[slot].gen}
}

func (s *refScheduler) After(d time.Duration, fn func()) refTimer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

func (s *refScheduler) Step() bool {
	for len(s.heap) > 0 {
		e := s.heap[0]
		s.heap = heapPopRoot(s.heap)
		sl := &s.arena[e.slot]
		switch sl.state {
		case slotCancelled:
			s.cancelled--
			s.freeSlot(e.slot)
			continue
		case slotPending:
			fn := sl.fn
			s.freeSlot(e.slot)
			s.live--
			s.now = e.at
			s.executed++
			fn()
			return true
		default:
			panic("refScheduler: heap entry references a free slot")
		}
	}
	return false
}

// refCompactMinCancelled is the floor below which the reference heap
// leaves cancelled entries to be reaped lazily; above it, a sweep runs
// once cancelled entries are at least half the heap.
const refCompactMinCancelled = 64

func (s *refScheduler) refMaybeCompact() {
	if s.cancelled < refCompactMinCancelled || 2*s.cancelled < len(s.heap) {
		return
	}
	h := s.heap[:0]
	for _, e := range s.heap {
		if s.arena[e.slot].state == slotCancelled {
			s.freeSlot(e.slot)
			continue
		}
		h = append(h, e)
	}
	s.heap = h
	s.cancelled = 0
	if n := len(h); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			heapSiftDown(h, i)
		}
	}
}

// fireRec is one observed firing: which logical timer, at what clock.
type fireRec struct {
	id int
	at time.Duration
}

// TestWheelDifferentialFuzz drives the wheel scheduler and the reference
// heap through the same randomized operation stream — schedules across
// every wheel level up to the top of the time range, cancels, re-arms from
// inside callbacks, handle reuse after generation bumps, and interleaved
// Step batches that force cross-level cascades — and requires the exact
// same fire order out of both.
func TestWheelDifferentialFuzz(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewScheduler(seed)
		r := &refScheduler{}

		var wFires, rFires []fireRec
		var wTimers []Timer
		var rTimers []refTimer
		nextID := 0

		// Delays spanning sub-tick and every wheel level: 2^50 ns lands
		// in level 3, and 2^52 ns and beyond (more than 52 days) in
		// levels 4 and 5.
		delay := func() time.Duration {
			switch rng.Intn(6) {
			case 0:
				return time.Duration(rng.Int63n(int64(1) << tickShift)) // same tick
			case 1:
				return time.Duration(rng.Int63n(1 << (tickShift + wheelBits)))
			case 2:
				return time.Duration(rng.Int63n(1 << (tickShift + 2*wheelBits)))
			case 3:
				return time.Duration(rng.Int63n(1 << (tickShift + 3*wheelBits)))
			case 4:
				return time.Duration(rng.Int63n(int64(1) << 50))
			default:
				return time.Duration(int64(1)<<52 + rng.Int63n(int64(1)<<60))
			}
		}

		schedule := func(d time.Duration, rearmDepth int) {
			id := nextID
			nextID++
			var wfn, rfn func()
			if rearmDepth > 0 {
				red := time.Duration(1+rng.Int63n(int64(1)<<30)) * 3
				wfn = func() {
					wFires = append(wFires, fireRec{id, w.Now()})
					wTimers = append(wTimers, w.After(red, func() {
						wFires = append(wFires, fireRec{-id, w.Now()})
					}))
				}
				rfn = func() {
					rFires = append(rFires, fireRec{id, r.now})
					rTimers = append(rTimers, r.After(red, func() {
						rFires = append(rFires, fireRec{-id, r.now})
					}))
				}
			} else {
				wfn = func() { wFires = append(wFires, fireRec{id, w.Now()}) }
				rfn = func() { rFires = append(rFires, fireRec{id, r.now}) }
			}
			wTimers = append(wTimers, w.After(d, wfn))
			rTimers = append(rTimers, r.After(d, rfn))
		}

		for round := 0; round < 60; round++ {
			for i, n := 0, rng.Intn(40); i < n; i++ {
				schedule(delay(), rng.Intn(4)/3) // ~1/4 re-arm from callback
			}
			// Cancel a random subset; exercise double-cancel and stale
			// (generation-reused) handles too.
			for i, n := 0, rng.Intn(20); i < n; i++ {
				if len(wTimers) == 0 {
					break
				}
				k := rng.Intn(len(wTimers))
				wc := wTimers[k].Cancel()
				rc := rTimers[k].Cancel()
				if wc != rc {
					t.Fatalf("seed %d: Cancel disagreement at handle %d: wheel=%v ref=%v", seed, k, wc, rc)
				}
				if wTimers[k].Pending() != rTimers[k].Pending() {
					t.Fatalf("seed %d: Pending disagreement at handle %d", seed, k)
				}
			}
			// Step a random batch, forcing cascades between rounds.
			for i, n := 0, rng.Intn(60); i < n; i++ {
				ws := w.Step()
				rs := r.Step()
				if ws != rs {
					t.Fatalf("seed %d round %d: Step disagreement: wheel=%v ref=%v", seed, round, ws, rs)
				}
				if !ws {
					break
				}
				if w.Now() != r.now {
					t.Fatalf("seed %d round %d: clock divergence: wheel=%v ref=%v", seed, round, w.Now(), r.now)
				}
			}
			if w.Pending() != r.live {
				t.Fatalf("seed %d round %d: pending divergence: wheel=%d ref=%d", seed, round, w.Pending(), r.live)
			}
		}
		// Drain both completely.
		for w.Step() {
			if !r.Step() {
				t.Fatalf("seed %d: ref drained before wheel", seed)
			}
		}
		if r.Step() {
			t.Fatalf("seed %d: wheel drained before ref", seed)
		}
		if len(wFires) != len(rFires) {
			t.Fatalf("seed %d: fire count divergence: wheel=%d ref=%d", seed, len(wFires), len(rFires))
		}
		for i := range wFires {
			if wFires[i] != rFires[i] {
				t.Fatalf("seed %d: fire %d divergence: wheel=%+v ref=%+v", seed, i, wFires[i], rFires[i])
			}
		}
		if w.Executed() != r.executed {
			t.Fatalf("seed %d: executed divergence: wheel=%d ref=%d", seed, w.Executed(), r.executed)
		}
	}
}

// TestWheelLevelBoundaries schedules timers landing exactly on every
// level's boundary (the first tick of a level-1 slot and of a level-2
// through level-5 block) plus one tick to either side, and the largest
// representable time, and checks that they fire in the reference heap's
// order at exact times. Cancel of an event in level 4 or 5 then reports
// true, drops Pending at once and puts the slot straight back on the
// free list.
func TestWheelLevelBoundaries(t *testing.T) {
	const tick = time.Duration(1) << tickShift
	boundaries := []time.Duration{
		tick << wheelBits,       // first tick of level 1
		tick << (2 * wheelBits), // first tick of level 2
		tick << (3 * wheelBits), // first tick of level 3
		tick << (4 * wheelBits), // first tick of level 4
		tick << (5 * wheelBits), // first tick of level 5
		math.MaxInt64,           // the last tick of all
		tick<<wheelBits - 1, tick<<wheelBits + 1,
		tick<<(2*wheelBits) - 1, tick<<(2*wheelBits) + 1,
		tick<<(3*wheelBits) - 1, tick<<(3*wheelBits) + 1,
		tick<<(4*wheelBits) - 1, tick<<(4*wheelBits) + 1,
		tick<<(5*wheelBits) - 1, tick<<(5*wheelBits) + 1,
		math.MaxInt64 - 1,
		tick - 1, tick, tick + 1, // level-0/same-tick boundary
	}
	s := NewScheduler(1)
	r := &refScheduler{}
	var got, ref []time.Duration
	for _, d := range boundaries {
		s.At(d, func() { got = append(got, s.Now()) })
		r.At(d, func() { ref = append(ref, r.now) })
	}
	for s.Step() {
	}
	for r.Step() {
	}
	want := slices.Clone(boundaries)
	slices.Sort(want) // all values distinct
	if !slices.Equal(ref, want) {
		t.Fatalf("reference fired %v, want %v", ref, want)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("wheel fired %v, want %v", got, want)
	}

	for _, at := range []time.Duration{tick << (4 * wheelBits), tick << (5 * wheelBits), math.MaxInt64} {
		s := NewScheduler(1)
		tm := s.At(at, func() { t.Errorf("cancelled event at %v fired", at) })
		level := s.arena[tm.slot].where
		if level < 4 {
			t.Fatalf("event at %v lives in level %d, want 4 or 5", at, level)
		}
		if !tm.Cancel() {
			t.Fatalf("Cancel of the level-%d event reported false", level)
		}
		if tm.Pending() || s.Pending() != 0 {
			t.Fatalf("level-%d event still pending after Cancel", level)
		}
		if len(s.free) != 1 || s.free[0] != tm.slot || s.wheelPop != 0 {
			t.Fatalf("level-%d slot not recycled: free=%v wheelPop=%d", level, s.free, s.wheelPop)
		}
		if s.Step() {
			t.Fatal("Step fired with nothing pending")
		}
	}
}

// TestWheelCancelAcrossCascade arms timers in a higher wheel level,
// advances the clock so their slot cascades down, and checks that Cancel
// and Pending stay correct on handles taken before the cascade — and that
// a cancel issued mid-flight (after the cascade repositioned the event)
// still prevents the firing.
func TestWheelCancelAcrossCascade(t *testing.T) {
	const tick = time.Duration(1) << tickShift
	s := NewScheduler(1)
	fired := 0
	// Lands in level 1 now; will cascade to level 0 when the cursor
	// enters its block.
	target := tick * (wheelSlots + 40)
	tm := s.At(target, func() { fired++ })
	// A pacer event inside the target's level-1 block but before the
	// target tick: stepping it forces the cascade first.
	pacer := tick * (wheelSlots + 10)
	s.At(pacer, func() {
		if !tm.Pending() {
			t.Error("timer not pending after cascade")
		}
		if !tm.Cancel() {
			t.Error("cancel failed after cascade")
		}
		if tm.Pending() {
			t.Error("timer still pending after cancel")
		}
		if tm.Cancel() {
			t.Error("double cancel reported true")
		}
	})
	for s.Step() {
	}
	if fired != 0 {
		t.Fatalf("cancelled timer fired %d times", fired)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after drain", s.Pending())
	}

	// Same shape, but let it fire: Pending must flip false afterwards.
	s2 := NewScheduler(2)
	tm2 := s2.At(target, func() {})
	if !tm2.Pending() {
		t.Fatal("level-1 resident timer not pending")
	}
	for s2.Step() {
	}
	if tm2.Pending() {
		t.Fatal("fired timer still pending")
	}
}

// TestWheelRearmInPlace checks that Step frees the firing slot
// before the callback: an AfterCall from inside it gets the same arena
// slot with a bumped generation, the stale handle is inert, and the new
// timer fires on time or can be cancelled like any other.
func TestWheelRearmInPlace(t *testing.T) {
	s := NewScheduler(1)
	var fires []time.Duration
	var first, next Timer
	first = s.AfterCall(time.Millisecond, func(any) {
		fires = append(fires, s.Now())
		if first.Pending() || first.Cancel() {
			t.Error("firing handle still pending inside its own callback")
		}
		next = s.AfterCall(2*time.Millisecond, func(any) {
			fires = append(fires, s.Now())
		}, nil)
	}, nil)
	for s.Step() {
	}
	if len(fires) != 2 || fires[0] != time.Millisecond || fires[1] != 3*time.Millisecond {
		t.Fatalf("fires = %v", fires)
	}
	if first.slot != next.slot {
		t.Fatalf("AfterCall in a callback did not reuse the firing slot: %d vs %d", first.slot, next.slot)
	}
	if first.gen == next.gen {
		t.Fatal("reused slot kept its generation")
	}
	if first.Pending() || first.Cancel() {
		t.Fatal("stale handle still acts on the reused slot")
	}

	// A timer scheduled from a callback must be cancellable like any
	// other.
	var cancelMe Timer
	s.AfterCall(time.Millisecond, func(any) {
		cancelMe = s.AfterCall(time.Hour, func(any) { t.Error("cancelled timer fired") }, nil)
	}, nil)
	if !s.Step() {
		t.Fatal("nothing fired")
	}
	if !cancelMe.Pending() || !cancelMe.Cancel() || cancelMe.Pending() {
		t.Fatal("timer scheduled from a callback not cancellable")
	}
	if s.Step() {
		t.Fatal("cancelled timer left an event queued")
	}
}

// rearmLoop is a self-re-arming timer: each fire schedules the next.
type rearmLoop struct {
	s     *Scheduler
	fires int
}

func rearmTick(arg any) {
	l := arg.(*rearmLoop)
	l.fires++
	l.s.AfterCall(time.Millisecond, rearmTick, l)
}

// TestWheelSelfRearmOneSlot runs a self-re-arming loop for 10,000 fires:
// the loop cycles one arena slot and allocates nothing per fire.
func TestWheelSelfRearmOneSlot(t *testing.T) {
	s := NewScheduler(1)
	l := &rearmLoop{s: s}
	s.AfterCall(time.Millisecond, rearmTick, l)
	s.Step() // warm the free list
	allocs := testing.AllocsPerRun(10000, func() {
		if !s.Step() {
			t.Fatal("loop stopped")
		}
	})
	if allocs != 0 {
		t.Fatalf("self-re-arming loop allocates %v per fire", allocs)
	}
	if l.fires < 10000 {
		t.Fatalf("fired %d times", l.fires)
	}
	if len(s.arena) != 1 {
		t.Fatalf("arena grew to %d slots", len(s.arena))
	}
}

// TestWheelDenseTickOrder packs batches of 1 to 500 events into one tick,
// drawing their times from a handful of values so most share an exact
// at, and lets some of them schedule more events into the same tick from
// inside their callbacks (the runExtra path, including times already past
// that clamp to now). The batch lands in level 0, in a higher level that
// cascades down, or on the cursor tick itself. The wheel must fire the
// reference heap's exact order: a run sort that broke (at, seq) ties by
// anything but seq fails here.
func TestWheelDenseTickOrder(t *testing.T) {
	const tick = time.Duration(1) << tickShift
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewScheduler(seed)
		r := &refScheduler{}
		var wFires, rFires []fireRec
		nextID := 0

		var schedule func(at time.Duration, ats []time.Duration)
		schedule = func(at time.Duration, ats []time.Duration) {
			id := nextID
			nextID++
			var children []time.Duration
			for rng.Intn(8) == 0 {
				children = append(children, ats[rng.Intn(len(ats))]-time.Duration(rng.Intn(2))*tick)
			}
			wfn := func() {
				wFires = append(wFires, fireRec{id, w.Now()})
				for _, c := range children {
					w.At(c, func() { wFires = append(wFires, fireRec{-id, w.Now()}) })
				}
			}
			rfn := func() {
				rFires = append(rFires, fireRec{id, r.now})
				for _, c := range children {
					r.At(c, func() { rFires = append(rFires, fireRec{-id, r.now}) })
				}
			}
			w.At(at, wfn)
			r.At(at, rfn)
		}

		for round := 0; round < 40; round++ {
			start := w.Now() &^ (tick - 1)
			switch rng.Intn(3) {
			case 0: // the cursor tick: straight into runExtra
			case 1: // level 0
				start += tick * time.Duration(1+rng.Intn(wheelSlots-1))
			default: // a higher level, reached by cascade
				start += tick << (wheelBits + rng.Intn(2*wheelBits))
			}
			ats := make([]time.Duration, 1+rng.Intn(6))
			for i := range ats {
				ats[i] = start + time.Duration(rng.Int63n(int64(tick)))
			}
			for i, n := 0, 1+rng.Intn(500); i < n; i++ {
				schedule(ats[rng.Intn(len(ats))], ats)
			}
			for w.Step() {
				if !r.Step() {
					t.Fatalf("seed %d round %d: ref drained before wheel", seed, round)
				}
			}
			if r.Step() {
				t.Fatalf("seed %d round %d: wheel drained before ref", seed, round)
			}
		}
		if len(wFires) != len(rFires) {
			t.Fatalf("seed %d: fire count divergence: wheel=%d ref=%d", seed, len(wFires), len(rFires))
		}
		for i := range wFires {
			if wFires[i] != rFires[i] {
				t.Fatalf("seed %d: fire %d divergence: wheel=%+v ref=%+v", seed, i, wFires[i], rFires[i])
			}
		}
	}
}
