package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"mcommerce/internal/apps"
	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/device"
	"mcommerce/internal/experiments"
	"mcommerce/internal/metrics"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
	"mcommerce/internal/workload"
)

// world is one built workload instance. The benchmark drives every world
// through the same phases: setup, warm-up and measured window (advance),
// then drain and verify. Everything a world reports is simulated and
// therefore deterministic per seed.
type world interface {
	// setup does the simulated set-up that must finish before load starts.
	setup() error
	// advance runs the simulation for d of simulated time.
	advance(d time.Duration) error
	// nets lists every shard's network: registries, schedulers, tracers.
	nets() []*simnet.Network
	// engine returns the sharded executor's counters (empty for a world
	// on one plain scheduler).
	engine() metrics.Snapshot
	// dbs lists the databases whose commits and aborts the window counts.
	dbs() []*database.DB
	// txns reads the world's transactions so far.
	txns() txns
	// drain stops issuing load and lets what is in flight finish.
	drain() error
	// verify checks the workload's invariants. The returned summary is
	// deterministic and goes into the run digest.
	verify() (string, error)
}

// txns is a world's transaction record: counts plus latencies, kept
// either exactly (one sample per txn) or as latency-histogram buckets.
// Worlds report it cumulatively; sub turns two readings into a window and
// add pools windows.
type txns struct {
	done, attempted, failed uint64
	lat                     []time.Duration // exact samples, in completion order
	buckets                 []uint64        // or counts over bounds, plus an overflow bucket
	bounds                  []time.Duration
	maxLat                  time.Duration // largest observation, the overflow bucket's edge
}

// sub returns the transactions in t that are not in the earlier reading e.
func (t txns) sub(e txns) txns {
	out := txns{done: t.done - e.done, attempted: t.attempted - e.attempted, failed: t.failed - e.failed,
		bounds: t.bounds, maxLat: t.maxLat}
	if t.buckets == nil {
		out.lat = t.lat[len(e.lat):]
		return out
	}
	out.buckets = append([]uint64(nil), t.buckets...)
	for i := range e.buckets {
		out.buckets[i] -= e.buckets[i]
	}
	return out
}

// add pools o into t.
func (t *txns) add(o txns) {
	t.done, t.attempted, t.failed = t.done+o.done, t.attempted+o.attempted, t.failed+o.failed
	t.lat = append(t.lat, o.lat...)
	if o.buckets != nil {
		if t.buckets == nil {
			t.buckets, t.bounds = make([]uint64, len(o.buckets)), o.bounds
		}
		for i, c := range o.buckets {
			t.buckets[i] += c
		}
	}
	t.maxLat = max(t.maxLat, o.maxLat)
}

// samples is the number of latency observations.
func (t txns) samples() int {
	n := len(t.lat)
	for _, c := range t.buckets {
		n += int(c)
	}
	return n
}

// quantile returns the q-quantile latency: the nearest-rank sample when
// latencies are exact, else a linear interpolation inside the bucket that
// holds it, so it moves with the distribution instead of snapping to a
// bucket bound.
func (t txns) quantile(q float64) time.Duration {
	n := t.samples()
	if n == 0 {
		return 0
	}
	if t.buckets == nil {
		lat := append([]time.Duration(nil), t.lat...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[rank(n, q)]
	}
	target := q * float64(n)
	var cum float64
	for i, c := range t.buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := time.Duration(0), t.maxLat
			if i > 0 {
				lo = t.bounds[i-1]
			}
			if i < len(t.bounds) {
				hi = min(t.bounds[i], t.maxLat)
			}
			return lo + time.Duration((target-cum)/float64(c)*float64(hi-lo))
		}
		cum += float64(c)
	}
	return t.maxLat
}

// beyondP99 is the number of samples ranked above the p99 sample.
func (t txns) beyondP99() int {
	n := t.samples()
	return max(0, n-rank(n, 0.99)-1)
}

// rank is the index of the q-quantile in n sorted samples (nearest rank).
func rank(n int, q float64) int {
	i := int(q*float64(n)+0.999999999) - 1
	return max(0, min(n-1, i))
}

// histTxns sums the latency histograms named prefix*.latency across the
// world's registries; the caller fills in the counts.
func histTxns(nets []*simnet.Network, prefix string) txns {
	var t txns
	for _, n := range nets {
		for _, e := range n.Metrics.Snapshot().Entries {
			if e.Kind == metrics.KindHistogram && strings.HasPrefix(e.Name, prefix) && strings.HasSuffix(e.Name, ".latency") {
				t.add(txns{buckets: e.Buckets, bounds: e.Bounds, maxLat: e.Max})
			}
		}
	}
	return t
}

// workloadSpec sizes one workload. A txn is one workload operation,
// counted by completion inside the measured window.
type workloadSpec struct {
	name   string
	lanes  int           // executor lanes (1 = one plain scheduler)
	warm   time.Duration // simulated warm-up before the window
	window time.Duration // simulated measured window
	sample int           // traced run: keep 1 trace in sample
	build  func(seed int64) (world, error)
}

// shardLanes is the worker-lane count of the sharded worlds: one per core
// of the two-core host the benchmark was sized on.
const shardLanes = 2

// specs returns the four workloads, full size or shrunk for smoke tests.
func specs(tiny bool) []workloadSpec {
	shop := shopConfig{users: 100, think: 2 * time.Second, drain: 30 * time.Second}
	wap := wapConfig{stations: 16, think: 100 * time.Millisecond}
	scale := experiments.ScaleConfig{Gateways: 4, CellsPerGateway: 16, StationsPerCell: 16000, ThinkMean: 20 * time.Second, Workers: shardLanes}
	storm := experiments.SyncStormConfig{Gateways: 4, CellsPerGateway: 4, DevicesPerCell: 500, Replicas: 2, Policy: mobiledb.PolicyLWW, Workers: shardLanes}
	w := []workloadSpec{
		{name: "shop-wlan", lanes: 1, warm: 60 * time.Second, window: time.Minute, sample: 100},
		{name: "wap-gprs", lanes: 1, warm: 60 * time.Second, window: 2 * time.Minute, sample: 100},
		{name: "scale-1m", lanes: shardLanes, warm: 20 * time.Second, window: 20 * time.Second, sample: 10000},
		// The window [1s, 21s) holds the whole fault plan (2s to 17s).
		{name: "syncstorm", lanes: shardLanes, warm: time.Second, window: 20 * time.Second, sample: 100},
	}
	if tiny {
		shop = shopConfig{users: 4, think: 2 * time.Second, drain: 10 * time.Second}
		wap.stations = 2
		scale = experiments.ScaleConfig{Gateways: 2, CellsPerGateway: 2, StationsPerCell: 50, ThinkMean: time.Second, Workers: shardLanes}
		storm = experiments.SyncStormConfig{Gateways: 2, CellsPerGateway: 1, DevicesPerCell: 20, Replicas: 2, Policy: mobiledb.PolicyLWW, Workers: shardLanes}
		w[0].warm, w[0].window = 5*time.Second, 20*time.Second
		w[1].warm, w[1].window = 5*time.Second, 20*time.Second
		w[2].warm, w[2].window = 2*time.Second, 5*time.Second
		w[3].window = 20 * time.Second
		for i := range w {
			w[i].sample = min(w[i].sample, 10)
		}
	}
	w[0].build = func(seed int64) (world, error) { return newShop(seed, shop) }
	w[1].build = func(seed int64) (world, error) { return newWAP(seed, wap) }
	w[2].build = func(seed int64) (world, error) {
		c := scale
		c.Seed = seed
		return newScale(c)
	}
	w[3].build = func(seed int64) (world, error) {
		c := storm
		c.Seed = seed
		return newStorm(c)
	}
	return w
}

// latencyLog records every completed transaction exactly: the quantiles
// of the full-fidelity workloads are order statistics, not bucket bounds.
type latencyLog struct{ t txns }

func (l *latencyLog) record(lat time.Duration, err error) {
	l.t.attempted++
	if err != nil {
		l.t.failed++
		return
	}
	l.t.done++
	l.t.lat = append(l.t.lat, lat)
}

// ---- shop-wlan ------------------------------------------------------------

type shopConfig struct {
	users int
	think time.Duration
	drain time.Duration
}

// The payment every pay operation makes, in cents, and each user's
// opening balance.
const (
	payCents     = 199
	openingCents = 1_000_000
)

// shopWorld is the full-fidelity WLAN deployment driven by a closed loop
// of users: think, pick an operation from workload.DefaultMix, wait for it
// to finish, think again.
type shopWorld struct {
	cfg      shopConfig
	mc       *core.MC
	merchant *apps.CommerceClient
	users    []*shopUser
	mix      workload.Mix
	log      latencyLog
	stopped  bool

	pays           int // confirmed payments, whole run
	shortDownloads int
}

type shopUser struct {
	idx      int
	browser  *device.Browser
	commerce *apps.CommerceClient
	tracking *apps.InventoryClient
	travel   *apps.TravelClient
	media    *apps.EntertainmentClient
	pays     int
	orders   int
}

var shopOps = []workload.Op{workload.OpBrowse, workload.OpPay, workload.OpTrack, workload.OpSearch, workload.OpDownload}

func newShop(seed int64, cfg shopConfig) (*shopWorld, error) {
	profiles := device.Profiles()
	mcfg := core.MCConfig{Seed: seed}
	for i := 0; i < cfg.users; i++ {
		mcfg.Devices = append(mcfg.Devices, profiles[i%len(profiles)])
	}
	mc, err := core.BuildMC(mcfg)
	if err != nil {
		return nil, err
	}
	if err := workload.RegisterHandlers(mc.Host); err != nil {
		return nil, err
	}
	w := &shopWorld{cfg: cfg, mc: mc, mix: workload.DefaultMix()}
	origin := mc.Host.Addr()
	key := []byte("payment-demo-key")
	w.merchant = &apps.CommerceClient{Fetcher: &device.IModeFetcher{Client: mc.Clients[0].IMode}, Origin: origin, Key: key}
	for i := 0; i < cfg.users; i++ {
		f := &device.IModeFetcher{Client: mc.Clients[i].IMode}
		w.users = append(w.users, &shopUser{
			idx:      i,
			browser:  mc.Clients[i].BrowserIMode(),
			commerce: &apps.CommerceClient{Fetcher: f, Origin: origin, Key: key},
			tracking: &apps.InventoryClient{Fetcher: f, Origin: origin},
			travel:   &apps.TravelClient{Fetcher: f, Origin: origin},
			media:    &apps.EntertainmentClient{Fetcher: f, Origin: origin},
		})
	}
	return w, nil
}

func (w *shopWorld) setup() error {
	opened := 0
	count := func(_ apps.AccountView, err error) {
		if err == nil {
			opened++
		}
	}
	w.merchant.OpenAccount("merchant", "Merchant", 0, count)
	for _, u := range w.users {
		u.commerce.OpenAccount(userAccount(u.idx), "User", openingCents, count)
	}
	if err := w.mc.Net.Sched.RunFor(30 * time.Second); err != nil {
		return err
	}
	if opened != len(w.users)+1 {
		return fmt.Errorf("account setup: %d of %d accounts opened", opened, len(w.users)+1)
	}
	for _, u := range w.users {
		w.next(u)
	}
	return nil
}

func userAccount(i int) string { return fmt.Sprintf("user-%d", i) }

// next schedules the user's next operation after an exponential think.
func (w *shopWorld) next(u *shopUser) {
	sched := w.mc.Net.Sched
	think := time.Duration(sched.Rand().ExpFloat64() * float64(w.cfg.think))
	sched.After(think, func() {
		if w.stopped {
			return
		}
		op := w.pick()
		begin := sched.Now()
		tr := w.mc.Net.Tracer
		root := tr.StartTrace("bench."+string(op), trace.LayerStation)
		prev := tr.Swap(root)
		defer tr.Swap(prev)
		w.perform(u, op, func(err error) {
			tr.Finish(root)
			w.log.record(sched.Now()-begin, err)
			w.next(u)
		})
	})
}

func (w *shopWorld) pick() workload.Op {
	total := 0
	for _, op := range shopOps {
		total += w.mix[op]
	}
	n := w.mc.Net.Sched.Rand().Intn(total)
	for _, op := range shopOps {
		if n -= w.mix[op]; n < 0 {
			return op
		}
	}
	return workload.OpBrowse
}

func (w *shopWorld) perform(u *shopUser, op workload.Op, done func(error)) {
	switch op {
	case workload.OpBrowse:
		u.browser.Browse(w.mc.Host.Addr(), "/shop", func(_ *device.Page, err error) { done(err) })
	case workload.OpPay:
		u.orders++
		u.commerce.Pay(fmt.Sprintf("o-%d-%d", u.idx, u.orders), userAccount(u.idx), "merchant", payCents,
			int64(w.mc.Net.Sched.Now()), func(_ apps.PayReceipt, err error) {
				if err == nil {
					u.pays++
					w.pays++
				}
				done(err)
			})
	case workload.OpTrack:
		u.tracking.ReportPosition(apps.TrackUpdate{
			Courier: fmt.Sprintf("courier-%d", u.idx), X: float64(u.idx), Y: float64(u.orders),
		}, done)
	case workload.OpSearch:
		u.travel.Search("GSO", "ATL", func(_ []apps.Itinerary, err error) { done(err) })
	case workload.OpDownload:
		u.media.Download("game1", func(b []byte, err error) {
			if err == nil && len(b) != 64<<10 {
				w.shortDownloads++
				err = fmt.Errorf("download returned %d bytes", len(b))
			}
			done(err)
		})
	}
}

func (w *shopWorld) advance(d time.Duration) error { return w.mc.Net.Sched.RunFor(d) }
func (w *shopWorld) nets() []*simnet.Network       { return []*simnet.Network{w.mc.Net} }
func (w *shopWorld) engine() metrics.Snapshot      { return metrics.Snapshot{} }
func (w *shopWorld) dbs() []*database.DB           { return []*database.DB{w.mc.Host.DB} }
func (w *shopWorld) txns() txns                    { return w.log.t }

func (w *shopWorld) drain() error {
	w.stopped = true
	return w.mc.Net.Sched.RunFor(w.cfg.drain)
}

// verify reads every balance back: money is conserved only if the
// merchant holds exactly payCents per confirmed payment and each user the
// rest.
func (w *shopWorld) verify() (string, error) {
	sched := w.mc.Net.Sched
	var errs []error
	if w.shortDownloads > 0 {
		errs = append(errs, fmt.Errorf("%d downloads were not 65536 bytes", w.shortDownloads))
	}
	var merchant int64 = -1
	w.merchant.Balance("merchant", func(v apps.AccountView, err error) {
		if err == nil {
			merchant = v.Balance
		}
	})
	balances := make([]int64, len(w.users))
	for i, u := range w.users {
		balances[i] = -1
		u.commerce.Balance(userAccount(u.idx), func(v apps.AccountView, err error) {
			if err == nil {
				balances[i] = v.Balance
			}
		})
	}
	if err := sched.RunFor(w.cfg.drain); err != nil {
		return "", err
	}
	if want := int64(payCents * w.pays); merchant != want {
		errs = append(errs, fmt.Errorf("merchant balance %d, want %d for %d confirmed payments", merchant, want, w.pays))
	}
	for i, u := range w.users {
		if want := int64(openingCents - payCents*u.pays); balances[i] != want {
			errs = append(errs, fmt.Errorf("user %d balance %d, want %d", i, balances[i], want))
			break
		}
	}
	return fmt.Sprintf("pays=%d merchant=%d", w.pays, merchant), errors.Join(errs...)
}

// ---- wap-gprs -------------------------------------------------------------

type wapConfig struct {
	stations int
	think    time.Duration
}

// wapWorld runs every station in a closed loop through
// core.MC.TransactWAP: a fresh WSP session, then a browse of the
// storefront, then a short exponential think. Strictly back-to-back
// stations fall into lock-step, and every transaction then takes the same
// simulated time whatever the seed.
type wapWorld struct {
	mc       *core.MC
	cfg      wapConfig
	log      latencyLog
	stopped  bool
	badPages int
}

func newWAP(seed int64, cfg wapConfig) (*wapWorld, error) {
	profiles := device.Profiles()
	mcfg := core.MCConfig{Seed: seed, Bearer: core.BearerCellular, CellStandard: cellular.GPRS, DisableIMode: true}
	for i := 0; i < cfg.stations; i++ {
		mcfg.Devices = append(mcfg.Devices, profiles[i%len(profiles)])
	}
	mc, err := core.BuildMC(mcfg)
	if err != nil {
		return nil, err
	}
	if err := workload.RegisterHandlers(mc.Host); err != nil {
		return nil, err
	}
	return &wapWorld{mc: mc, cfg: cfg}, nil
}

func (w *wapWorld) setup() error {
	for i := 0; i < w.cfg.stations; i++ {
		w.transact(i)
	}
	return nil
}

func (w *wapWorld) transact(i int) {
	w.mc.TransactWAP(i, "/shop", func(t core.Transaction) {
		err := t.Err
		// The gateway transcodes the storefront to one WML card titled by
		// its heading.
		if err == nil && (t.Page == nil || t.Page.Title != "Catalog" || !strings.Contains(t.Page.Text, "widgets")) {
			w.badPages++
			err = errors.New("storefront page not rendered")
		}
		w.log.record(t.Latency, err)
		if !w.stopped {
			// The next session starts from a fresh event, outside the
			// finished transaction's trace context.
			sched := w.mc.Net.Sched
			sched.After(time.Duration(sched.Rand().ExpFloat64()*float64(w.cfg.think)), func() { w.transact(i) })
		}
	})
}

func (w *wapWorld) advance(d time.Duration) error { return w.mc.Net.Sched.RunFor(d) }
func (w *wapWorld) nets() []*simnet.Network       { return []*simnet.Network{w.mc.Net} }
func (w *wapWorld) engine() metrics.Snapshot      { return metrics.Snapshot{} }
func (w *wapWorld) dbs() []*database.DB           { return []*database.DB{w.mc.Host.DB} }
func (w *wapWorld) txns() txns                    { return w.log.t }

func (w *wapWorld) drain() error {
	w.stopped = true
	return w.mc.Net.Sched.RunFor(30 * time.Second)
}

func (w *wapWorld) verify() (string, error) {
	if w.badPages > 0 {
		return "", fmt.Errorf("%d transactions did not return the rendered catalog page", w.badPages)
	}
	return fmt.Sprintf("txns=%d", w.log.t.done), nil
}

// ---- scale-1m -------------------------------------------------------------

// scaleWorld is experiments.BuildScale: virtual stations on cell
// aggregators echoing against their cluster hosts, on a sharded world.
type scaleWorld struct{ sw *experiments.ScaleWorld }

func newScale(cfg experiments.ScaleConfig) (*scaleWorld, error) {
	sw, err := experiments.BuildScale(cfg)
	if err != nil {
		return nil, err
	}
	return &scaleWorld{sw: sw}, nil
}

func (w *scaleWorld) setup() error { return nil }
func (w *scaleWorld) advance(d time.Duration) error {
	return w.sw.World.RunFor(d, w.sw.Cfg.Workers)
}
func (w *scaleWorld) nets() []*simnet.Network  { return shardNets(w.sw.World) }
func (w *scaleWorld) engine() metrics.Snapshot { return w.sw.World.EngineSnapshot() }
func (w *scaleWorld) dbs() []*database.DB      { return nil }

func (w *scaleWorld) txns() txns {
	t := histTxns(w.nets(), "workload.flows.")
	rep := w.sw.Report()
	t.done, t.failed, t.attempted = rep.Ops, rep.Timeouts, rep.Ops+rep.Timeouts
	return t
}

// drain has nothing to wait for: stations never stop, and the check
// below holds at any instant.
func (w *scaleWorld) drain() error { return nil }

// verify checks that no operation completed without its echo being served.
func (w *scaleWorld) verify() (string, error) {
	rep := w.sw.Report()
	var served uint64
	for _, c := range rep.Clusters {
		served += c.Served
	}
	if served < rep.Ops {
		return "", fmt.Errorf("echo served %d < ops %d", served, rep.Ops)
	}
	return fmt.Sprintf("ops=%d served=%d", rep.Ops, served), nil
}

func shardNets(w *simnet.Sharded) []*simnet.Network {
	out := make([]*simnet.Network, w.NumShards())
	for k := range out {
		out[k] = w.Shard(k)
	}
	return out
}

// ---- syncstorm ------------------------------------------------------------

// stormWorld is experiments.BuildSyncStorm. A txn is one completed sync
// session; a timed-out session is retried by its device with the same
// tentative writes, so it counts as attempted, and only a lost update
// counts as failed.
type stormWorld struct {
	sw     *experiments.SyncStormWorld
	waited time.Duration // simulated time drain waited for convergence
}

func newStorm(cfg experiments.SyncStormConfig) (*stormWorld, error) {
	sw, err := experiments.BuildSyncStorm(cfg)
	if err != nil {
		return nil, err
	}
	return &stormWorld{sw: sw}, nil
}

func (w *stormWorld) setup() error { return nil }
func (w *stormWorld) advance(d time.Duration) error {
	return w.sw.World.RunFor(d, w.sw.Cfg.Workers)
}
func (w *stormWorld) nets() []*simnet.Network  { return shardNets(w.sw.World) }
func (w *stormWorld) engine() metrics.Snapshot { return w.sw.World.EngineSnapshot() }

func (w *stormWorld) dbs() []*database.DB {
	var out []*database.DB
	for _, dt := range w.sw.Tiers {
		for _, m := range dt.Members {
			out = append(out, m.DB())
		}
	}
	return out
}

func (w *stormWorld) flows(fn func(f *workload.SyncFlows)) {
	for c := range w.sw.Local {
		for _, pop := range [][]*workload.SyncFlows{w.sw.Local[c], w.sw.Remote[c]} {
			for _, f := range pop {
				if f != nil {
					fn(f)
				}
			}
		}
	}
}

func (w *stormWorld) lost() uint64 {
	var n uint64
	w.flows(func(f *workload.SyncFlows) { n += f.Lost })
	for _, dt := range w.sw.Tiers {
		for _, svc := range dt.Services {
			n += svc.Server().BlindOverwrites
		}
	}
	return n
}

func (w *stormWorld) txns() txns {
	t := histTxns(w.nets(), "workload.syncflows.")
	var timeouts uint64
	w.flows(func(f *workload.SyncFlows) { timeouts += f.Timeouts })
	t.done = uint64(t.samples())
	t.attempted, t.failed = t.done+timeouts, w.lost()
	return t
}

func (w *stormWorld) converged() bool {
	for _, dt := range w.sw.Tiers {
		for _, m := range dt.Members {
			if !m.Alive() {
				return false
			}
		}
		if !dt.Converged() {
			return false
		}
	}
	return true
}

// drain steps the world, up to the grace window, until every tier has
// converged.
func (w *stormWorld) drain() error {
	const step = 250 * time.Millisecond
	for w.waited = 0; !w.converged() && w.waited < w.sw.Cfg.ConvergeGrace; w.waited += step {
		if err := w.advance(step); err != nil {
			return err
		}
	}
	return nil
}

// verify checks that the tiers converged and no update was lost.
func (w *stormWorld) verify() (string, error) {
	if !w.converged() {
		return "", fmt.Errorf("tiers not converged within %v", w.sw.Cfg.ConvergeGrace)
	}
	if lost := w.lost(); lost != 0 {
		return "", fmt.Errorf("%d updates lost", lost)
	}
	return fmt.Sprintf("converged after %v", w.waited), nil
}
