package workload

import (
	"fmt"
	"strconv"
	"time"

	"mcommerce/internal/metrics"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
)

// SyncFlows is the disconnected-transaction analogue of Flows: a
// population of virtual devices on one cell aggregator node, each with its
// own small mobiledb.Store, writing tentatively and syncing to a
// replicated data tier. Devices share the cell's node, scheduler and UDP
// stack — no per-device node — so a hundred thousand of them fit in one
// world. Unlike the echo flows, the steady state allocates (sessions build
// request messages), which is the honest cost of a real protocol.

// syncRingMax bounds the cell's broadcast-invalidation ring. Devices that
// fall further behind than the ring simply miss those ticks; their cache
// self-heals through the sync response's invalidation replay instead.
// It is a power of two below 1<<16: the ring links slots by uint16 index.
const syncRingMax = 1024

// Device sync sizing every population uses.
const (
	// syncSharedKeys sizes the hot shared key space ("s0".."sN-1").
	syncSharedKeys = 8
	// syncSharedPct is the percentage of writes aimed at a shared key.
	syncSharedPct = 30
	// syncValueBytes pads each written value to this size.
	syncValueBytes = 32
	// syncTimeout abandons a sync session: the device aborts (resilient)
	// or drops its tentative writes (Fragile), rotates its target and
	// moves on.
	syncTimeout = 3 * time.Second
	// syncRetryDelay paces redirect-driven resends.
	syncRetryDelay = 250 * time.Millisecond
)

// SyncFlowConfig parameterizes a cell's virtual device population.
type SyncFlowConfig struct {
	// Devices is the number of virtual devices on this cell.
	Devices int
	// FirstPort is device 0's UDP port (device i uses FirstPort+i; the
	// cell's invalidation listener uses FirstPort+Devices).
	FirstPort simnet.Port
	// Tier lists the data tier's sync endpoints in rank order; devices
	// start at rank 0 and rotate on redirect or timeout.
	Tier []simnet.Addr
	// WriteMean is the mean exponential gap between disconnected writes.
	WriteMean time.Duration
	// SyncMean is the mean exponential gap between sync attempts.
	SyncMean time.Duration
	// Fragile selects the rollback-on-reconnect baseline: a timed-out
	// session discards its tentative writes outright.
	Fragile bool
}

// SyncFlows drives a population of virtual syncing devices from one cell.
type SyncFlows struct {
	cfg  SyncFlowConfig
	name string
	node *simnet.Node
	u    *simnet.UDP

	devices []syncDevice

	// Cell-level broadcast-disk state: the tail of the tier's
	// invalidation stream plus the watermark it reaches.
	inv        invRing
	invThrough uint64

	// sharedKeys holds the hot shared keys "s0".."sN-1"; valBuf is the
	// scratch a write's value is built in (PutTentative copies it).
	sharedKeys []string
	valBuf     []byte

	// Aggregate counters, aliased under workload.syncflows.<name>.*.
	Writes, Syncs, Confirmed, Overridden uint64
	Lost, Redirects, Timeouts, InvTicks  uint64
	latency                              metrics.Histogram
}

// syncDevice is one virtual device: a private store plus the in-flight
// session state.
type syncDevice struct {
	f       *SyncFlows
	store   *mobiledb.Store
	key     string // the device's private key
	port    simnet.Port
	id      int
	target  int
	session *mobiledb.UpSyncRequest
	nextSID uint64
	sentAt  time.Duration
	timeout simnet.Timer
	retryT  simnet.Timer
	ctx     trace.Context
	invPos  uint64
	wseq    uint64
}

func syncDevWrite(a any)  { a.(*syncDevice).write() }
func syncDevSync(a any)   { a.(*syncDevice).sync() }
func syncDevExpire(a any) { a.(*syncDevice).expire() }
func syncDevResend(a any) { a.(*syncDevice).resend() }

// NewSyncFlows builds the device population on the given cell node and
// schedules every device's first write and sync. name scopes the
// aggregate metrics. Call InvalidationAddr and subscribe it on each tier
// sync service to close the broadcast-disk loop.
func NewSyncFlows(nd *simnet.Node, name string, cfg SyncFlowConfig) (*SyncFlows, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("workload: syncflows %q needs devices > 0", name)
	}
	if int(cfg.FirstPort)+cfg.Devices+1 > 65535 {
		return nil, fmt.Errorf("workload: syncflows %q: %d devices from port %d overflow the port space", name, cfg.Devices, cfg.FirstPort)
	}
	if len(cfg.Tier) == 0 {
		return nil, fmt.Errorf("workload: syncflows %q needs tier endpoints", name)
	}
	if cfg.WriteMean <= 0 || cfg.SyncMean <= 0 {
		return nil, fmt.Errorf("workload: syncflows %q needs write and sync means > 0", name)
	}
	f := &SyncFlows{cfg: cfg, name: name, node: nd, u: simnet.UDPOf(nd), valBuf: make([]byte, syncValueBytes)}
	f.sharedKeys = make([]string, syncSharedKeys)
	for i := range f.sharedKeys {
		f.sharedKeys[i] = "s" + strconv.Itoa(i)
	}
	sc := nd.Network().Metrics.Instance("workload.syncflows." + metrics.Sanitize(name))
	sc.AliasCounter("writes", &f.Writes)
	sc.AliasCounter("syncs", &f.Syncs)
	sc.AliasCounter("confirmed", &f.Confirmed)
	sc.AliasCounter("overridden", &f.Overridden)
	sc.AliasCounter("lost", &f.Lost)
	sc.AliasCounter("redirects", &f.Redirects)
	sc.AliasCounter("timeouts", &f.Timeouts)
	sc.AliasCounter("inv_ticks", &f.InvTicks)
	f.latency = sc.Histogram("latency")

	sched := nd.Sched()
	now := func() int64 { return int64(sched.Now()) }
	f.devices = make([]syncDevice, cfg.Devices)
	for i := range f.devices {
		d := &f.devices[i]
		d.f = f
		d.id = i
		d.port = cfg.FirstPort + simnet.Port(i)
		// Private keys carry the population name: populations on sibling
		// cells number their devices identically, and only shared keys
		// should ever contend.
		id := strconv.Itoa(i)
		d.key = name + ".d" + id
		d.store = mobiledb.New(name+"-d"+id, 0)
		d.store.SetNow(now)
		if err := f.u.Listen(d.port, d.reply); err != nil {
			return nil, fmt.Errorf("workload: syncflows %q: %w", name, err)
		}
		wthink := time.Duration(sched.Rand().ExpFloat64() * float64(cfg.WriteMean))
		sched.AfterCall(wthink, syncDevWrite, d)
		sthink := time.Duration(sched.Rand().ExpFloat64() * float64(cfg.SyncMean))
		sched.AfterCall(sthink, syncDevSync, d)
	}
	if err := f.u.Listen(f.invPort(), f.recvInvalidation); err != nil {
		return nil, fmt.Errorf("workload: syncflows %q: %w", name, err)
	}
	return f, nil
}

func (f *SyncFlows) invPort() simnet.Port {
	return f.cfg.FirstPort + simnet.Port(f.cfg.Devices)
}

// InvalidationAddr is where this cell receives the tier's broadcast-disk
// invalidation stream; pass it to every SyncService.Subscribe.
func (f *SyncFlows) InvalidationAddr() simnet.Addr {
	return simnet.Addr{Node: f.node.ID, Port: f.invPort()}
}

// ThroughWatermark reports how far along the invalidation stream the
// cell has consumed.
func (f *SyncFlows) ThroughWatermark() uint64 { return f.invThrough }

// PendingWrites sums tentative writes across the population — the
// not-yet-durable backlog.
func (f *SyncFlows) PendingWrites() int {
	n := 0
	for i := range f.devices {
		n += f.devices[i].store.TentativeCount()
	}
	return n
}

// recvInvalidation consumes one broadcast tick into the cell ring.
func (f *SyncFlows) recvInvalidation(from simnet.Addr, body any, bytes int) {
	msg, ok := body.(*mobiledb.InvalidationMsg)
	if !ok {
		return
	}
	if msg.Through <= f.invThrough {
		return // duplicate or stale broadcast (e.g. post-failover rewind)
	}
	f.InvTicks += uint64(len(msg.Invalid))
	for _, inv := range msg.Invalid {
		f.inv.push(inv.Key, inv.SrvVer)
	}
	f.invThrough = msg.Through
}

// catchUpInvalidations applies the ring ticks the device has not consumed
// yet: the last invThrough-invPos of them, or the whole ring when the
// device fell further behind (older ticks are gone). The ring's index
// answers per cached key, so the cost follows the device's entries, not
// the backlog.
func (d *syncDevice) catchUpInvalidations() {
	f := d.f
	if f.invThrough <= d.invPos {
		return
	}
	w := min(f.invThrough-d.invPos, f.inv.length())
	d.store.ApplyInvalidationIndex(func(key string) (uint64, bool) {
		return f.inv.newest(key, w)
	})
	d.invPos = f.invThrough
}

// write records one disconnected write and schedules the next.
func (d *syncDevice) write() {
	f := d.f
	sched := f.node.Sched()
	rng := sched.Rand()
	key := d.key
	if rng.Intn(100) < syncSharedPct {
		key = f.sharedKeys[rng.Intn(syncSharedKeys)]
	}
	d.wseq++
	if err := d.store.PutTentative(key, fillWriteValue(f.valBuf, d.id, d.wseq)); err == nil {
		f.Writes++
	}
	think := time.Duration(rng.ExpFloat64() * float64(f.cfg.WriteMean))
	sched.AfterCall(think, syncDevWrite, d)
}

// fillWriteValue writes "d<id>.<wseq>" into val, truncated to its length
// and zero-padded, and returns val.
func fillWriteValue(val []byte, id int, wseq uint64) []byte {
	var buf [48]byte
	b := append(buf[:0], 'd')
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, wseq, 10)
	clear(val[copy(val, b):])
	return val
}

// sync opens a session if there is anything to upload and none in flight.
func (d *syncDevice) sync() {
	f := d.f
	sched := f.node.Sched()
	reschedule := func() {
		think := time.Duration(sched.Rand().ExpFloat64() * float64(f.cfg.SyncMean))
		sched.AfterCall(think, syncDevSync, d)
	}
	if d.session != nil {
		reschedule()
		return
	}
	d.catchUpInvalidations()
	if d.store.TentativeCount() == 0 {
		reschedule()
		return
	}
	req := d.store.BeginUpSync()
	d.nextSID++
	req.Session = d.nextSID
	d.session = req
	d.sentAt = sched.Now()
	f.Syncs++
	tracer := f.node.Network().Tracer
	d.ctx = tracer.StartTrace("mobiledb.sync.device", trace.LayerStation)
	d.send()
	d.timeout = sched.AfterCall(syncTimeout, syncDevExpire, d)
}

// send ships the current session to the current target under the session
// span. The request is immutable after the first send, so redirect
// resends (possibly cross-shard) are safe.
func (d *syncDevice) send() {
	f := d.f
	tracer := f.node.Network().Tracer
	prev := tracer.Swap(d.ctx)
	f.u.Send(d.port, f.cfg.Tier[d.target], d.session, d.session.WireBytes())
	tracer.Swap(prev)
}

func (d *syncDevice) resend() {
	if d.session == nil {
		return
	}
	d.send()
}

// reply handles a tier response for the in-flight session.
func (d *syncDevice) reply(from simnet.Addr, body any, bytes int) {
	resp, ok := body.(*mobiledb.UpSyncResponse)
	if !ok || d.session == nil || resp.Session != d.session.Session {
		return
	}
	f := d.f
	sched := f.node.Sched()
	tracer := f.node.Network().Tracer
	if resp.Retry {
		f.Redirects++
		if resp.RedirectRank >= 0 && resp.RedirectRank < len(f.cfg.Tier) {
			d.target = resp.RedirectRank
		} else {
			d.target = (d.target + 1) % len(f.cfg.Tier)
		}
		tracer.Annotate(d.ctx, "redirect")
		d.retryT.Cancel()
		d.retryT = sched.AfterCall(syncRetryDelay, syncDevResend, d)
		return
	}
	d.timeout.Cancel()
	d.retryT.Cancel()
	c, o := d.store.FinishUpSync(resp)
	f.Confirmed += uint64(c)
	f.Overridden += uint64(o)
	f.latency.Observe(sched.Now() - d.sentAt)
	tracer.Finish(d.ctx)
	d.ctx = trace.Context{}
	d.session = nil
	think := time.Duration(sched.Rand().ExpFloat64() * float64(f.cfg.SyncMean))
	sched.AfterCall(think, syncDevSync, d)
}

// expire abandons the in-flight session. Resilient devices keep their
// tentative writes for the next attempt; the fragile baseline rolls them
// back — every dropped write is a lost update.
func (d *syncDevice) expire() {
	f := d.f
	if d.session == nil {
		return
	}
	f.Timeouts++
	d.retryT.Cancel()
	if f.cfg.Fragile {
		f.Lost += uint64(d.store.DropTentative(d.session))
	}
	tracer := f.node.Network().Tracer
	tracer.Annotate(d.ctx, "timeout")
	tracer.Finish(d.ctx)
	d.ctx = trace.Context{}
	d.session = nil
	d.target = (d.target + 1) % len(f.cfg.Tier)
	sched := f.node.Sched()
	think := time.Duration(sched.Rand().ExpFloat64() * float64(f.cfg.SyncMean))
	sched.AfterCall(think, syncDevSync, d)
}
