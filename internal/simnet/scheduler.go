package simnet

import (
	"errors"
	"math/bits"
	"math/rand"
	"time"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before the event queue drained.
var ErrStopped = errors.New("simnet: scheduler stopped")

// Timer is a handle to a scheduled event. It is a small value (scheduler,
// arena slot, generation) and is copied freely; the zero value is a valid
// "no timer" for which Cancel and Pending report false. Handles stay safe
// after the event fires or is cancelled: the slot's generation changes when
// it is recycled, so a stale handle can never touch a newer event.
type Timer struct {
	s    *Scheduler
	slot int32
	gen  uint32
}

// Cancel prevents the timer's callback from running. Cancelling an already
// fired or already cancelled timer (or the zero Timer) is a no-op. It
// reports whether the callback was still pending.
//
// A wheel-resident event unlinks from its slot list and recycles at once
// in O(1); an event already staged in the current dispatch run is marked
// and skipped when popped.
func (t Timer) Cancel() bool {
	s := t.s
	if s == nil {
		return false
	}
	sl := &s.arena[t.slot]
	if sl.gen != t.gen || sl.state != slotPending {
		return false
	}
	s.live--
	if sl.where >= 0 {
		// Resident in a wheel slot: unlink and recycle now.
		s.unlink(t.slot)
		s.freeSlot(t.slot)
		return true
	}
	// Staged in run/runExtra: reaped when popped.
	sl.state = slotCancelled
	sl.fn = nil
	sl.fnArg = nil
	sl.arg = nil
	return true
}

// Pending reports whether the timer's callback has neither fired nor been
// cancelled.
func (t Timer) Pending() bool {
	s := t.s
	if s == nil {
		return false
	}
	sl := &s.arena[t.slot]
	return sl.gen == t.gen && sl.state == slotPending
}

// Event slot lifecycle states. A slot is recycled (generation bumped,
// pushed on the free list) just before its callback runs, or — for
// cancelled events — either immediately (wheel-resident) or when the
// stale dispatch-stage entry is popped.
const (
	slotFree uint8 = iota
	slotPending
	slotCancelled
)

// Hierarchical timing wheel geometry. Virtual time quantizes to ticks of
// 2^tickShift nanoseconds (~1.05ms); each of the six levels spans 256
// slots, so level L buckets ticks by bits [L*8, (L+1)*8). The 48 tick
// bits exceed the 43 a time.Duration reaches, so every representable
// time has a wheel slot and no overflow structure is needed.
const (
	tickShift   = 20
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 6
	wheelWords  = wheelSlots / 64
)

// Where an event currently lives. Values 0..wheelLevels-1 are wheel
// levels; the negatives are the non-wheel stations of the lifecycle.
const (
	locNone int8 = -1 // not queued (free, or mid-cascade)
	locRun  int8 = -2 // staged in the run slice or runExtra heap
)

// eventSlot is one arena entry. Callbacks come in two flavours: a plain
// fn func(), or fnArg(arg) for hot paths that reuse a package-level func
// value plus a pooled argument to schedule without allocating a closure.
// The ordering key (at, seq) and the intrusive wheel-list links live
// inline so wheel operations never allocate.
type eventSlot struct {
	fn    func()
	fnArg func(any)
	arg   any
	at    time.Duration
	seq   uint64
	next  int32 // next slot in the wheel slot's doubly-linked list
	prev  int32 // previous slot, or -1 at the list head
	gen   uint32
	state uint8
	where int8   // wheel level, or a loc* station
	idx   uint16 // wheel slot index when where >= 0
}

// heapEntry is one node of the runExtra 4-ary min-heap or of
// the sorted dispatch run. The ordering key (at, seq) is stored inline so
// sift operations never chase the arena.
type heapEntry struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// Scheduler is the discrete-event core: a virtual clock plus an ordered
// queue of future callbacks. Events live in a value-typed arena indexed by
// a hierarchical timing wheel (6 levels x 256 slots at ~1ms tick
// granularity) for O(1) insert and cancel of every future timer. Same-tick
// events drain as one sorted run, preserving the exact (at, seq) total
// order of the previous heap scheduler. A LIFO free list recycles arena
// slots so steady-state scheduling performs no allocations; Step frees
// the firing slot before its callback, so a callback that schedules its
// successor reuses that very slot. It is not safe for
// concurrent use; the entire simulation runs on the goroutine that calls
// Run, RunUntil or Step.
type Scheduler struct {
	now     time.Duration
	seq     uint64
	arena   []eventSlot
	free    []int32
	rng     *rand.Rand
	stopped bool

	// The wheel: per-level slot list heads into the arena (-1 = empty),
	// occupancy bitmaps for next-slot scans, the cursor tick, and the
	// count of wheel-resident events.
	wheel    [wheelLevels][wheelSlots]int32
	occ      [wheelLevels][wheelWords]uint64
	curTick  uint64
	wheelPop int

	// The dispatch stage: run holds the (at, seq)-sorted batch drained
	// from the level-0 slot at curTick (consumed from runHead); runExtra
	// is a small 4-ary heap catching events scheduled at or before the
	// cursor (same-tick inserts from callbacks, clamped-to-now events
	// after the cursor advanced ahead of the clock). Both stages always
	// compare strictly below any wheel-resident event.
	run      []heapEntry
	runHead  int
	runExtra []heapEntry

	// live counts pending (not cancelled, not fired) events.
	live int

	// executed counts events that have fired, for diagnostics.
	executed uint64

	// cascades counts higher-level wheel slot redistributions, for
	// diagnostics.
	cascades uint64
}

// NewScheduler returns a scheduler whose random source is seeded with seed.
// Two schedulers with the same seed and the same sequence of scheduling
// calls produce identical executions.
func NewScheduler(seed int64) *Scheduler {
	s := &Scheduler{rng: rand.New(rand.NewSource(seed))}
	for l := range s.wheel {
		for i := range s.wheel[l] {
			s.wheel[l][i] = -1
		}
	}
	return s
}

// Now returns the current virtual time (duration since simulation start).
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Executed returns the number of events that have fired so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending returns the number of events still queued and due to fire.
// Cancelled events are excluded, even when their heap entries have not yet
// been reaped.
func (s *Scheduler) Pending() int { return s.live }

// Cascades returns the number of higher-level wheel slots redistributed to
// lower levels as the cursor advanced, for diagnostics.
func (s *Scheduler) Cascades() uint64 { return s.cascades }

// alloc grabs a free arena slot (recycling before growing) and stores the
// callback. It returns the slot index.
func (s *Scheduler) alloc(fn func(), fnArg func(any), arg any) int32 {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.arena = append(s.arena, eventSlot{})
		slot = int32(len(s.arena) - 1)
	}
	sl := &s.arena[slot]
	if sl.state != slotFree {
		panic("simnet: scheduler free list holds a live slot")
	}
	sl.fn = fn
	sl.fnArg = fnArg
	sl.arg = arg
	sl.state = slotPending
	sl.where = locNone
	s.live++
	return slot
}

// freeSlot recycles an arena slot: bump the generation so stale Timer
// handles miss, drop callback references for the GC, push on the free list.
func (s *Scheduler) freeSlot(slot int32) {
	sl := &s.arena[slot]
	sl.gen++
	sl.state = slotFree
	sl.fn = nil
	sl.fnArg = nil
	sl.arg = nil
	sl.where = locNone
	s.free = append(s.free, slot)
}

// schedule inserts a pending slot into the queue at time t.
func (s *Scheduler) schedule(t time.Duration, slot int32) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	sl := &s.arena[slot]
	sl.at = t
	sl.seq = s.seq
	s.enqueue(slot, t, s.seq)
}

// enqueue places a pending event: at or behind the cursor it joins the
// runExtra dispatch heap; otherwise it links into the smallest level whose parent block the event's tick shares with the
// cursor (which puts its slot strictly ahead of the cursor in the current
// rotation — the invariant the scan and cascade logic rely on). The top
// level spans every representable time, so it is the default case. The
// switch is unrolled: a loop over levels measured slower on the
// timer-churn benchmarks.
func (s *Scheduler) enqueue(slot int32, at time.Duration, seq uint64) {
	tick := uint64(at) >> tickShift
	cur := s.curTick
	if tick <= cur {
		s.arena[slot].where = locRun
		s.runExtra = heapPush(s.runExtra, heapEntry{at: at, seq: seq, slot: slot})
		return
	}
	switch {
	case tick>>wheelBits == cur>>wheelBits:
		s.linkInto(0, uint16(tick&wheelMask), slot)
	case tick>>(2*wheelBits) == cur>>(2*wheelBits):
		s.linkInto(1, uint16((tick>>wheelBits)&wheelMask), slot)
	case tick>>(3*wheelBits) == cur>>(3*wheelBits):
		s.linkInto(2, uint16((tick>>(2*wheelBits))&wheelMask), slot)
	case tick>>(4*wheelBits) == cur>>(4*wheelBits):
		s.linkInto(3, uint16((tick>>(3*wheelBits))&wheelMask), slot)
	case tick>>(5*wheelBits) == cur>>(5*wheelBits):
		s.linkInto(4, uint16((tick>>(4*wheelBits))&wheelMask), slot)
	default:
		s.linkInto(5, uint16((tick>>(5*wheelBits))&wheelMask), slot)
	}
}

// linkInto pushes a slot onto the head of a wheel slot's intrusive list
// and marks the occupancy bit.
func (s *Scheduler) linkInto(level int, idx uint16, slot int32) {
	sl := &s.arena[slot]
	sl.where = int8(level)
	sl.idx = idx
	head := s.wheel[level][idx]
	sl.next = head
	sl.prev = -1
	if head >= 0 {
		s.arena[head].prev = slot
	}
	s.wheel[level][idx] = slot
	s.occ[level][idx>>6] |= 1 << (idx & 63)
	s.wheelPop++
}

// unlink removes a wheel-resident slot from its list in O(1), clearing the
// occupancy bit when the list empties.
func (s *Scheduler) unlink(slot int32) {
	sl := &s.arena[slot]
	level, idx := int(sl.where), sl.idx
	if sl.prev >= 0 {
		s.arena[sl.prev].next = sl.next
	} else {
		s.wheel[level][idx] = sl.next
	}
	if sl.next >= 0 {
		s.arena[sl.next].prev = sl.prev
	}
	if s.wheel[level][idx] < 0 {
		s.occ[level][idx>>6] &^= 1 << (idx & 63)
	}
	sl.where = locNone
	s.wheelPop--
}

// At schedules fn to run at absolute virtual time t. Times in the past are
// clamped to Now: the event fires on the next Step, after already queued
// events at the current instant.
func (s *Scheduler) At(t time.Duration, fn func()) Timer {
	slot := s.alloc(fn, nil, nil)
	s.schedule(t, slot)
	return Timer{s: s, slot: slot, gen: s.arena[slot].gen}
}

// After schedules fn to run d after the current virtual time. Negative d is
// treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtCall schedules fn(arg) at absolute virtual time t. Unlike At, it does
// not require a closure: hot paths pass a package-level func value and a
// (typically pooled) argument, so scheduling allocates nothing. arg should
// be a pointer; pointers stored in an interface do not allocate.
func (s *Scheduler) AtCall(t time.Duration, fn func(any), arg any) Timer {
	slot := s.alloc(nil, fn, arg)
	s.schedule(t, slot)
	return Timer{s: s, slot: slot, gen: s.arena[slot].gen}
}

// AfterCall schedules fn(arg) to run d after the current virtual time.
// Negative d is treated as zero.
func (s *Scheduler) AfterCall(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return s.AtCall(s.now+d, fn, arg)
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event fired (false when the queue is
// empty or only cancelled events remain).
func (s *Scheduler) Step() bool {
	if !s.ready() {
		return false
	}
	var e heapEntry
	if s.runHead < len(s.run) &&
		(len(s.runExtra) == 0 || entryLess(s.run[s.runHead], s.runExtra[0])) {
		e = s.run[s.runHead]
		s.runHead++
	} else {
		e = s.runExtra[0]
		s.runExtra = heapPopRoot(s.runExtra)
	}
	sl := &s.arena[e.slot]
	if sl.state != slotPending {
		panic("simnet: dispatch stage entry references a non-pending slot")
	}
	// Copy the callback out and free the slot before the call: the
	// handle goes stale, and a callback that schedules its successor pops
	// this same slot off the LIFO free list.
	fn, fnArg, arg := sl.fn, sl.fnArg, sl.arg
	s.freeSlot(e.slot)
	s.live--
	s.now = e.at
	s.executed++
	if fn != nil {
		fn()
	} else {
		fnArg(arg)
	}
	return true
}

// ready stages the earliest live event into the dispatch stage, reaping
// cancelled entries it encounters at the run head and runExtra root. It
// reports false when no live events remain anywhere.
func (s *Scheduler) ready() bool {
	for {
		for s.runHead < len(s.run) {
			e := s.run[s.runHead]
			if s.arena[e.slot].state != slotCancelled {
				break
			}
			s.freeSlot(e.slot)
			s.runHead++
		}
		for len(s.runExtra) > 0 {
			e := s.runExtra[0]
			if s.arena[e.slot].state != slotCancelled {
				break
			}
			s.freeSlot(e.slot)
			s.runExtra = heapPopRoot(s.runExtra)
		}
		if s.runHead < len(s.run) || len(s.runExtra) > 0 {
			return true
		}
		if !s.advance() {
			return false
		}
	}
}

// advance moves the wheel cursor forward to the next occupied position:
// it drains the next occupied level-0 slot in the current rotation into
// the sorted run, cascading higher-level slots down as block boundaries
// are crossed. It reports false when the wheel holds no events at all.
func (s *Scheduler) advance() bool {
	for {
		if s.runHead < len(s.run) || len(s.runExtra) > 0 {
			// A cascade staged same-tick events.
			return true
		}
		if s.wheelPop == 0 {
			return false
		}
		// Level 0: the slot at the cursor itself is always empty (its
		// events drained when the cursor arrived; same-tick inserts go
		// to runExtra), so scanning from the cursor inclusive is safe.
		if j, ok := s.scanOcc(0, int(s.curTick&wheelMask)); ok {
			s.curTick = s.curTick&^uint64(wheelMask) | uint64(j)
			s.drainSlot0(j)
			return true
		}
		// Higher levels: enter the next occupied block and cascade it.
		found := false
		for l := 1; l < wheelLevels; l++ {
			shift := uint(l) * wheelBits
			c := int((s.curTick >> shift) & wheelMask)
			if j, ok := s.scanOcc(l, c+1); ok {
				blockMask := uint64(1)<<(shift+wheelBits) - 1
				s.curTick = s.curTick&^blockMask | uint64(j)<<shift
				s.cascade(l, j)
				found = true
				break
			}
		}
		if !found {
			panic("simnet: timing wheel occupancy desync")
		}
	}
}

// scanOcc returns the first occupied slot index >= from at the given
// level, using the occupancy bitmap.
func (s *Scheduler) scanOcc(level, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	w := from >> 6
	word := s.occ[level][w] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
		w++
		if w >= wheelWords {
			return 0, false
		}
		word = s.occ[level][w]
	}
}

// drainSlot0 unloads the level-0 slot at the cursor into the dispatch
// run, sorted by (at, seq). Every event in the slot shares the cursor's
// exact tick (the placement rule guarantees a level-0 slot never mixes
// rotations), so the whole same-tick batch dispatches as one run with no
// further heap traffic.
func (s *Scheduler) drainSlot0(j int) {
	slot := s.wheel[0][j]
	s.wheel[0][j] = -1
	s.occ[0][j>>6] &^= 1 << (uint(j) & 63)
	s.run = s.run[:0]
	s.runHead = 0
	for slot >= 0 {
		sl := &s.arena[slot]
		sl.where = locRun
		s.run = append(s.run, heapEntry{at: sl.at, seq: sl.seq, slot: slot})
		s.wheelPop--
		slot = sl.next
	}
	sortRun(s.run)
}

// cascade unloads a higher-level slot the cursor just entered and
// redistributes its events through enqueue: into lower levels, or — for
// events landing exactly on the cursor tick — straight into runExtra.
func (s *Scheduler) cascade(level, j int) {
	slot := s.wheel[level][j]
	s.wheel[level][j] = -1
	s.occ[level][j>>6] &^= 1 << (uint(j) & 63)
	s.cascades++
	for slot >= 0 {
		sl := &s.arena[slot]
		next := sl.next
		sl.where = locNone
		s.wheelPop--
		s.enqueue(slot, sl.at, sl.seq)
		slot = next
	}
}

// Run executes events until the queue drains or Stop is called. It returns
// nil on a drained queue and ErrStopped if halted.
func (s *Scheduler) Run() error {
	s.stopped = false
	for !s.stopped {
		if !s.Step() {
			return nil
		}
	}
	return ErrStopped
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled after the deadline remain queued.
// It returns ErrStopped if halted by Stop.
func (s *Scheduler) RunUntil(deadline time.Duration) error {
	s.stopped = false
	for !s.stopped {
		next, ok := s.peek()
		if !ok || next > deadline {
			if deadline > s.now {
				s.now = deadline
			}
			return nil
		}
		s.Step()
	}
	return ErrStopped
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Scheduler) RunFor(d time.Duration) error {
	return s.RunUntil(s.now + d)
}

// Stop halts a Run/RunUntil in progress. It is intended to be called from
// inside an event callback.
func (s *Scheduler) Stop() { s.stopped = true }

// peek returns the timestamp of the earliest live event, staging it in
// the dispatch stage (the cursor may advance; events never fire).
func (s *Scheduler) peek() (time.Duration, bool) {
	if !s.ready() {
		return 0, false
	}
	if s.runHead < len(s.run) {
		e := s.run[s.runHead]
		if len(s.runExtra) > 0 && entryLess(s.runExtra[0], e) {
			e = s.runExtra[0]
		}
		return e.at, true
	}
	return s.runExtra[0].at, true
}

// entryLess orders queue entries by (time, schedule sequence) so ties
// fire in scheduling order.
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// sortRun sorts a drained slot by entryLess: a quicksort with a
// median-of-three pivot, insertion sort below 12 entries. It is written
// out for heapEntry so the comparison inlines; (at, seq) keys are unique,
// so any correct sort yields the same order.
func sortRun(r []heapEntry) {
	for len(r) >= 12 {
		m, hi := len(r)/2, len(r)-1
		if entryLess(r[m], r[0]) {
			r[m], r[0] = r[0], r[m]
		}
		if entryLess(r[hi], r[m]) {
			r[hi], r[m] = r[m], r[hi]
			if entryLess(r[m], r[0]) {
				r[m], r[0] = r[0], r[m]
			}
		}
		// r[0] <= pivot <= r[hi] now bound both scans; park the pivot
		// at hi-1 and partition r[1:hi-1].
		p := r[m]
		r[m], r[hi-1] = r[hi-1], r[m]
		i, j := 0, hi-1
		for {
			for i++; entryLess(r[i], p); i++ {
			}
			for j--; entryLess(p, r[j]); j-- {
			}
			if i >= j {
				break
			}
			r[i], r[j] = r[j], r[i]
		}
		r[i], r[hi-1] = r[hi-1], r[i]
		// Recurse into the smaller side, loop on the larger, so the
		// stack stays O(log n).
		if i < len(r)-1-i {
			sortRun(r[:i])
			r = r[i+1:]
		} else {
			sortRun(r[i+1:])
			r = r[:i]
		}
	}
	for i := 1; i < len(r); i++ {
		e := r[i]
		j := i
		for ; j > 0 && entryLess(e, r[j-1]); j-- {
			r[j] = r[j-1]
		}
		r[j] = e
	}
}

// heapPush appends an entry to a 4-ary min-heap and sifts it up (parent
// of i is (i-1)/4). runExtra is one; the reference heap in the tests is
// another.
func heapPush(h []heapEntry, e heapEntry) []heapEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	return h
}

// heapPopRoot removes the minimum entry of a 4-ary min-heap.
func heapPopRoot(h []heapEntry) []heapEntry {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	if n > 1 {
		heapSiftDown(h, 0)
	}
	return h
}

// heapSiftDown restores heap order from node i toward the leaves
// (children of i are 4i+1..4i+4).
func heapSiftDown(h []heapEntry, i int) {
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Pick the smallest of up to four children.
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
