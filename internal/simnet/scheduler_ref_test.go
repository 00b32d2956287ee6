package simnet

import (
	"math/rand"
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

func (s *refScheduler) refMaybeCompact() {
	if s.cancelled < compactMinCancelled || 2*s.cancelled < len(s.heap) {
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
// every wheel level and the overflow horizon, cancels, re-arms from
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

		// Delays spanning sub-tick, level 0..3 and overflow horizons.
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
				// Beyond the wheel horizon: overflow heap territory.
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
// level's horizon boundary (first tick of a level-1 slot, of a level-2
// block, of a level-3 block, and the first tick past the wheel horizon)
// plus one tick to either side, and checks exact fire order and times.
func TestWheelLevelBoundaries(t *testing.T) {
	const tick = time.Duration(1) << tickShift
	boundaries := []time.Duration{
		tick << wheelBits,       // first tick of level 1
		tick << (2 * wheelBits), // first tick of level 2
		tick << (3 * wheelBits), // first tick of level 3
		tick << (4 * wheelBits), // first tick past the horizon (overflow)
		tick<<wheelBits - 1, tick<<wheelBits + 1,
		tick<<(2*wheelBits) - 1, tick<<(2*wheelBits) + 1,
		tick<<(3*wheelBits) - 1, tick<<(3*wheelBits) + 1,
		tick<<(4*wheelBits) - 1, tick<<(4*wheelBits) + 1,
		tick - 1, tick, tick + 1, // level-0/same-tick boundary
	}
	s := NewScheduler(1)
	var got []time.Duration
	for _, d := range boundaries {
		d := d
		s.At(d, func() { got = append(got, s.Now()) })
	}
	for s.Step() {
	}
	want := append([]time.Duration(nil), boundaries...)
	for i := 1; i < len(want); i++ { // insertion sort; all values distinct
		for j := i; j > 0 && want[j] < want[j-1]; j-- {
			want[j], want[j-1] = want[j-1], want[j]
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d of %d boundary timers", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boundary fire %d: got %v want %v", i, got[i], want[i])
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

// TestWheelRearmInPlace checks the Rearm fast path: the firing slot is
// reclaimed (same arena slot, bumped generation), old handles go stale,
// and the re-armed callback fires at the right time. Outside a callback
// Rearm must degrade to a plain AfterCall.
func TestWheelRearmInPlace(t *testing.T) {
	s := NewScheduler(1)
	var fires []time.Duration
	var rearmed Timer
	var first Timer
	first = s.AfterCall(time.Millisecond, func(any) {
		fires = append(fires, s.Now())
		rearmed = s.Rearm(2*time.Millisecond, func(any) {
			fires = append(fires, s.Now())
		}, nil)
	}, nil)
	for s.Step() {
	}
	if len(fires) != 2 || fires[0] != time.Millisecond || fires[1] != 3*time.Millisecond {
		t.Fatalf("fires = %v", fires)
	}
	if first.slot != rearmed.slot {
		t.Fatalf("Rearm did not reuse the firing slot: %d vs %d", first.slot, rearmed.slot)
	}
	if first.gen == rearmed.gen {
		t.Fatal("Rearm did not bump the generation")
	}
	if first.Pending() || first.Cancel() {
		t.Fatal("stale handle still acts on the rearmed slot")
	}

	// Outside a callback: falls back to AfterCall and still fires.
	n := 0
	s.Rearm(time.Millisecond, func(any) { n++ }, nil)
	for s.Step() {
	}
	if n != 1 {
		t.Fatalf("fallback Rearm fired %d times", n)
	}

	// A rearmed timer must be cancellable like any other.
	var cancelMe Timer
	s.AfterCall(time.Millisecond, func(any) {
		cancelMe = s.Rearm(time.Hour, func(any) { t.Error("cancelled rearm fired") }, nil)
	}, nil)
	for i := 0; i < 1 && s.Step(); i++ {
	}
	if !cancelMe.Pending() || !cancelMe.Cancel() {
		t.Fatal("rearmed timer not cancellable")
	}
	for s.Step() {
	}
}
