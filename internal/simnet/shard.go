package simnet

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"mcommerce/internal/metrics"
	"mcommerce/internal/trace"
)

// Sharded runs several Networks — one per topology shard — under a
// conservative time-window protocol. Every shard owns a full world slice:
// its own scheduler, event arena, metrics registry, tracer and packet
// pools. Execution proceeds in windows; within a window every shard runs
// independently, because nothing it does can affect another shard sooner
// than one cross-link delay away; at window boundaries shards exchange
// the packets that crossed (see Cross).
//
// Synchronization is per-pair, not a global barrier. Every window has the
// same width, Lookahead() — the smallest cross-link delay — and at every
// window boundary each shard drains the rings of the shards it shares a
// cross link with. Progress is tracked by per-shard epoch counters on a
// shared scoreboard; a window of shard k is claimable the moment its
// cross-linked neighbours have caught up, regardless of where unrelated
// shards are. Worker lanes claim whole windows from the scoreboard,
// preferring their home shards; a lane that drains its shards early
// steals another shard's next window (counted in simnet.shard.steals),
// keeping lanes busy under skewed populations.
//
// Determinism: which lane runs a shard's window never affects what the
// window computes — shard state is touched by exactly one lane per
// claimed task, ring drain order is fixed, the merge sort order is
// total, and the scoreboard's readiness conditions encode every
// happens-before edge a task needs. A run with any worker count is
// therefore byte-identical to a serial (workers=1) run of the same world
// at the same seed, which is what the golden tests and verify.sh pin.
//
// IDs are namespaced so shard-local values stay globally unambiguous:
// shard k's nodes get NodeIDs from k<<20 and its trace/span IDs from
// k<<48. Shard 0 uses base 0 and the world's own seed, so a one-shard
// world is indistinguishable from a plain Network.
type Sharded struct {
	shards  []*Network
	shardOf map[*Network]int32
	prefix  []string // per-shard metric prefix ("s0.", "s1.", ...)

	// rings[src][dst] is the exchange buffer for packets from shard src
	// to shard dst (nil until a cross link needs it). xseq[src] sequences
	// the records each source produces; both are owned by the shard that
	// indexes them during the task that touches them.
	rings   [][]*xring
	xseq    []uint64
	scratch [][]xrec // per-destination merge scratch, owned by the drain task

	// minCross is the smallest cross-link delay seen: the window width.
	minCross time.Duration

	// Engine telemetry: windows run, pair synchronization episodes and
	// work steals. Kept in a separate registry — not merged into Snapshot
	// — because steals depend on the worker count, and the world snapshot
	// must stay byte-identical at any count. See EngineSnapshot.
	engine   *metrics.Registry
	cWindows uint64
	cBarrier uint64
	cSteals  uint64

	now  time.Duration
	errs []error
}

// NewSharded creates a world of n empty shards. Shard 0's scheduler is
// seeded with seed itself — so a one-shard world replays exactly like
// NewNetwork(NewScheduler(seed)) — and shard k with a value derived
// deterministically from (seed, k).
func NewSharded(seed int64, n int) *Sharded {
	if n < 1 {
		panic("simnet: NewSharded needs at least one shard")
	}
	w := &Sharded{
		shards:  make([]*Network, n),
		shardOf: make(map[*Network]int32, n),
		prefix:  make([]string, n),
		rings:   make([][]*xring, n),
		xseq:    make([]uint64, n),
		scratch: make([][]xrec, n),
		errs:    make([]error, n),
	}
	for k := 0; k < n; k++ {
		s := seed
		if k > 0 {
			s = seed + int64(k)*1_000_000_007
		}
		net := NewNetwork(NewScheduler(s))
		net.SetNodeIDBase(NodeID(k) << 20)
		net.Tracer.SetIDBase(uint64(k) << 48)
		w.shards[k] = net
		w.shardOf[net] = int32(k)
		w.prefix[k] = "s" + strconv.Itoa(k) + "."
		w.rings[k] = make([]*xring, n)
	}
	// The engine counters are alias-registered fields so engine hot
	// paths increment plain uint64s.
	w.engine = metrics.New()
	sc := w.engine.Scope("simnet.shard")
	sc.AliasCounter("windows", &w.cWindows)
	sc.AliasCounter("barrier_waits", &w.cBarrier)
	sc.AliasCounter("steals", &w.cSteals)
	return w
}

// EngineSnapshot captures the engine-internals registry: window counts,
// per-pair synchronization episodes and lane steals. These live outside
// Snapshot deliberately — steals vary with the worker count, while the
// world snapshot is pinned byte-identical at any count.
func (w *Sharded) EngineSnapshot() metrics.Snapshot {
	return w.engine.Snapshot()
}

func (w *Sharded) ensureRing(src, dst int) {
	if w.rings[src][dst] == nil {
		w.rings[src][dst] = &xring{}
	}
}

// NumShards returns the shard count.
func (w *Sharded) NumShards() int { return len(w.shards) }

// WheelStats sums the per-shard schedulers' timing-wheel traffic:
// higher-level slot cascades and overflow-heap migrations. Both depend
// only on each shard's event stream, so the totals are identical at any
// worker lane count.
func (w *Sharded) WheelStats() (cascades, overflowMigrations uint64) {
	for _, sh := range w.shards {
		cascades += sh.Sched.Cascades()
		overflowMigrations += sh.Sched.OverflowMigrations()
	}
	return cascades, overflowMigrations
}

// Shard returns shard k's network; builders create nodes and intra-shard
// links on it directly.
func (w *Sharded) Shard(k int) *Network { return w.shards[k] }

// Now returns the world's virtual time: the horizon every shard has
// reached (after a clean run, the deadline; after a stop, the earliest
// point any shard froze at).
func (w *Sharded) Now() time.Duration { return w.now }

// Lookahead returns the window width: the minimum cross-shard link
// delay, or zero for a single shard or no cross links (one window spans
// the whole horizon).
func (w *Sharded) Lookahead() time.Duration { return w.minCross }

// RunFor executes d of virtual time from the current instant on up to
// workers goroutines.
func (w *Sharded) RunFor(d time.Duration, workers int) error {
	return w.RunUntil(w.now+d, workers)
}

// RunUntil executes all shards to the deadline on up to workers
// goroutines (values < 2, or a single shard, run inline) on the per-pair
// scoreboard. It returns ErrStopped if a shard's scheduler was stopped
// (that shard freezes at the stop event; siblings run on exactly until
// their next synchronization with it), or a causality error if a
// cross-shard record arrives before its destination shard's clock.
func (w *Sharded) RunUntil(deadline time.Duration, workers int) error {
	for k := range w.errs {
		w.errs[k] = nil
	}
	if deadline > w.now {
		w.runConservative(deadline, workers)
		// The world clock advances to the earliest horizon any shard
		// reached: the deadline after a clean run, the freeze point after
		// a stop. Shards beyond it (already past a stopped sibling) idle
		// on resume until the window loop catches up to their clocks.
		min := time.Duration(1<<63 - 1)
		for _, net := range w.shards {
			if t := net.Sched.Now(); t < min {
				min = t
			}
		}
		w.now = min
	}
	// Seal the state: records produced in the last window become pending
	// events on their destination schedulers, so Pending is accurate and
	// a later RunUntil resumes mid-stream.
	for k := range w.shards {
		w.drainRings(k)
	}
	for _, err := range w.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardProg is one shard's scoreboard entry: its current window (win
// counts completed windows), whether that window's boundary drain is
// done, and the claim/terminal flags. done is terminal: the shard ran its
// last window, or an error froze it mid-run. All access is under
// shardExec.mu.
type shardProg struct {
	win     int
	drained bool
	claimed bool
	done    bool
}

// shardExec runs one conservative RunUntil: a scoreboard of per-shard
// epoch counters guarded by one mutex, with worker lanes claiming drain
// and run tasks whose neighbour dependencies are met. The mutex is
// touched a few times per shard window (claim and publish); all
// simulation work happens outside it, and the condition variable parks
// lanes only when nothing in the whole world is claimable. Cross creates
// rings in both directions, so a shard's peers are both the sources it
// drains and the destinations it appends to.
type shardExec struct {
	w        *Sharded
	mu       sync.Mutex
	cond     *sync.Cond
	prog     []shardProg
	peers    [][]int // peers[k]: the shards k shares a cross link with
	start    time.Duration
	deadline time.Duration
	width    time.Duration
	numWin   int
	lanes    int
	active   int
}

// runConservative executes [w.now, deadline) under the per-pair window
// protocol on up to workers lanes.
func (w *Sharded) runConservative(deadline time.Duration, workers int) {
	n := len(w.shards)
	start := w.now
	width := w.Lookahead()
	span := deadline - start
	numWin := 1
	if width > 0 && width < span {
		numWin = int((span + width - 1) / width)
	} else {
		width = span
	}
	e := &shardExec{
		w: w, start: start, deadline: deadline, width: width, numWin: numWin,
		prog:  make([]shardProg, n),
		peers: make([][]int, n),
	}
	e.cond = sync.NewCond(&e.mu)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			if j != k && w.rings[j][k] != nil {
				e.peers[k] = append(e.peers[k], j)
			}
		}
	}
	lanes := workers
	if lanes > n {
		lanes = n
	}
	if lanes < 1 {
		lanes = 1
	}
	e.lanes = lanes
	if lanes == 1 {
		e.loop(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(lanes)
	for g := 0; g < lanes; g++ {
		go func(g int) {
			defer wg.Done()
			e.loop(g)
		}(g)
	}
	wg.Wait()
}

// loop is one lane: claim a ready task, execute it outside the lock,
// publish, repeat; park when nothing is claimable and exit at quiescence
// (all shards done, or the rest blocked on a frozen shard).
func (e *shardExec) loop(lane int) {
	e.mu.Lock()
	for {
		if k, run := e.claim(lane); k >= 0 {
			e.active++
			if k%e.lanes != lane {
				e.w.cSteals++
			}
			e.mu.Unlock()
			if run {
				e.runWindow(k)
			} else {
				e.w.drainRings(k)
			}
			e.mu.Lock()
			e.publish(k, run)
			e.active--
			e.cond.Broadcast()
			continue
		}
		if e.active == 0 {
			// Quiescent: nothing claimable and nothing in flight. Either
			// every shard is done or the remainder is blocked on a shard
			// an error froze — both terminal.
			e.cond.Broadcast()
			e.mu.Unlock()
			return
		}
		e.cond.Wait()
	}
}

// claim scans for a ready task, home shards (k ≡ lane mod lanes) first,
// then steals. Returns the shard and whether the task is a run (true)
// or a boundary drain (false); -1 when nothing is ready.
func (e *shardExec) claim(lane int) (int, bool) {
	n := len(e.prog)
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < n; k++ {
			if (pass == 0) != (k%e.lanes == lane) {
				continue
			}
			if e.ready(k) {
				e.prog[k].claimed = true
				return k, e.prog[k].drained
			}
		}
	}
	return -1, false
}

// ready evaluates the scoreboard conditions for shard k's next task.
// For the boundary drain of window w: every peer must have completed
// all windows < w (its records through window w-1 are in the ring). For
// the run of window w: every peer must have drained its boundary w, so
// this run's ring appends cannot race that drain. Both conditions are
// monotone in the epoch counters, so the set of executable tasks — and
// therefore the final state — is independent of claim timing and lane
// count.
func (e *shardExec) ready(k int) bool {
	p := &e.prog[k]
	if p.done || p.claimed {
		return false
	}
	if !p.drained {
		for _, j := range e.peers[k] {
			if e.prog[j].win < p.win {
				return false
			}
		}
		return true
	}
	for _, j := range e.peers[k] {
		q := &e.prog[j]
		if q.win < p.win || (q.win == p.win && !q.drained) {
			return false
		}
	}
	return true
}

// runWindow executes shard k's current window.
func (e *shardExec) runWindow(k int) {
	win := e.prog[k].win
	end := e.deadline
	if e.width > 0 {
		if t := e.start + time.Duration(win+1)*e.width; t < end {
			end = t
		}
	}
	if err := e.w.shards[k].Sched.RunUntil(end); err != nil {
		e.w.errs[k] = err
	}
}

// publish records a completed task on the scoreboard (under mu).
func (e *shardExec) publish(k int, run bool) {
	p := &e.prog[k]
	p.claimed = false
	if !run {
		e.w.cBarrier += uint64(len(e.peers[k]))
		p.drained = true
		if e.w.errs[k] != nil { // causality violation at inject
			p.done = true
		}
		return
	}
	e.w.cWindows++
	if e.w.errs[k] != nil {
		// The shard's scheduler stopped (or errored) mid-window: freeze
		// it at that virtual instant. Siblings keep running exactly until
		// their next synchronization with it — a cut determined by
		// virtual time, not by lane timing.
		p.done = true
		return
	}
	p.win++
	if p.win >= e.numWin {
		p.done = true
		return
	}
	// Idle-boundary fast path: a shard nothing sends to needs no drain
	// task.
	p.drained = len(e.peers[k]) == 0
}

// drainRings drains every ring addressed to shard k, merges the records
// in (arrival time, source shard, sequence) order, and schedules their
// deliveries on k's scheduler through k's own Carry. Arrival times must
// be at or after k's clock: a cross link's delay is never below the
// window width, so the window protocol guarantees it, and a record
// landing in k's past is reported as a deterministic causality error on
// k.
func (w *Sharded) drainRings(k int) {
	buf := w.scratch[k][:0]
	for s := range w.shards {
		r := w.rings[s][k]
		if r == nil || len(r.recs) == 0 {
			continue
		}
		buf = append(buf, r.recs...)
		r.recs = r.recs[:0]
	}
	w.scratch[k] = buf
	if len(buf) == 0 {
		return
	}
	slices.SortFunc(buf, func(a, b xrec) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.src != b.src {
			return int(a.src) - int(b.src)
		}
		if a.seq != b.seq {
			if a.seq < b.seq {
				return -1
			}
			return 1
		}
		return 0
	})
	net := w.shards[k]
	now := net.Sched.Now()
	for i := range buf {
		rec := &buf[i]
		if rec.at < now && w.errs[k] == nil {
			w.errs[k] = fmt.Errorf(
				"simnet: cross-shard record from shard %d arrives at %v, before shard %d's clock %v (causality violation)",
				rec.src, rec.at, k, now)
		}
		net.Carry(rec.at, rec.dst, &rec.p, trace.Context{}, rec.count)
		rec.p = Packet{} // drop Body reference for the GC
	}
	w.scratch[k] = buf[:0]
}

// Snapshot captures every shard's registry as one merged snapshot. A
// one-shard world snapshots its registry unprefixed — identical to the
// serial path — while multi-shard entries are prefixed "s<k>." and
// re-sorted, so dumps stay deterministic and diffable. Engine internals
// (windows, synchronization episodes, steals) are deliberately absent; see
// EngineSnapshot.
func (w *Sharded) Snapshot() metrics.Snapshot {
	if len(w.shards) == 1 {
		return w.shards[0].Metrics.Snapshot()
	}
	snaps := make([]metrics.Snapshot, len(w.shards))
	for k, net := range w.shards {
		snaps[k] = net.Metrics.Snapshot()
	}
	return metrics.Merged(w.prefix, snaps)
}

// Spans returns every shard's recorded spans concatenated in shard
// order. Span and trace IDs are disjoint across shards (SetIDBase), so
// the result exports directly via trace.WritePerfetto.
func (w *Sharded) Spans() []trace.Span {
	var out []trace.Span
	for _, net := range w.shards {
		out = append(out, net.Tracer.Spans()...)
	}
	return out
}

// Executed totals events fired across shards.
func (w *Sharded) Executed() uint64 {
	var n uint64
	for _, net := range w.shards {
		n += net.Sched.Executed()
	}
	return n
}

// Pending totals events queued across shards (cross-shard records still
// in rings are injected by RunUntil before it returns, so between runs
// this is exact).
func (w *Sharded) Pending() int {
	n := 0
	for _, net := range w.shards {
		n += net.Sched.Pending()
	}
	return n
}
