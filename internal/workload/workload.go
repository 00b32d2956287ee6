package workload

import (
	"fmt"
	"sort"
	"time"

	"mcommerce/internal/apps"
	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/trace"
	"mcommerce/internal/webserver"
)

// Op is a workload operation type.
type Op string

// The operation mix. Each maps to one Table 1 service interaction.
const (
	OpBrowse   Op = "browse"   // storefront page via the microbrowser
	OpPay      Op = "pay"      // signed payment authorization
	OpTrack    Op = "track"    // courier position report
	OpSearch   Op = "search"   // travel itinerary search
	OpDownload Op = "download" // 64 KiB media download
)

// Mix weights the operation types. Zero-value weights drop the type.
type Mix map[Op]int

// DefaultMix is a plausible interactive m-commerce session profile.
func DefaultMix() Mix {
	return Mix{OpBrowse: 5, OpPay: 2, OpTrack: 2, OpSearch: 2, OpDownload: 1}
}

// Config parameterizes a run.
type Config struct {
	// Users is the virtual-user count; it must not exceed the MC
	// system's client count.
	Users int
	// ThinkMean is the mean think time between a user's operations
	// (exponentially distributed); it must be positive.
	ThinkMean time.Duration
	// Duration is how long the run lasts (virtual time); it must be
	// positive.
	Duration time.Duration
}

// OpReport aggregates one operation type's outcomes.
type OpReport struct {
	Count    int
	Failures int
	P50      time.Duration
	P95      time.Duration
	Worst    time.Duration
}

// Report is a completed run's summary.
type Report struct {
	Users    int
	Duration time.Duration
	Ops      map[Op]OpReport
	// TotalOps counts successful operations across types.
	TotalOps int
	// Throughput is successful operations per second of virtual time.
	Throughput float64
	// P95 is the 95th percentile latency across all operation types.
	P95 time.Duration
}

// String renders the report.
func (r *Report) String() string {
	s := fmt.Sprintf("workload: %d users over %v: %d ops (%.2f op/s), p95 %v\n",
		r.Users, r.Duration, r.TotalOps, r.Throughput, r.P95.Round(100*time.Microsecond))
	for _, op := range []Op{OpBrowse, OpPay, OpTrack, OpSearch, OpDownload} {
		or, ok := r.Ops[op]
		if !ok {
			continue
		}
		s += fmt.Sprintf("  %-9s n=%-4d fail=%-3d p50=%-10v p95=%-10v worst=%v\n",
			op, or.Count, or.Failures, or.P50.Round(100*time.Microsecond),
			or.P95.Round(100*time.Microsecond), or.Worst.Round(100*time.Microsecond))
	}
	return s
}

// RegisterHandlers installs everything the workload needs on the host: the
// Table 1 services plus the storefront page.
func RegisterHandlers(h *core.Host) error {
	if err := apps.RegisterAll(h); err != nil {
		return err
	}
	h.Server.Handle("/shop", func(r *webserver.Request) *webserver.Response {
		return webserver.HTML(`<html><head><title>WidgetShop</title></head>
<body><h1>Catalog</h1><p>Buy <a href="/item">widgets</a> now.</p></body></html>`)
	})
	return nil
}

// user is one virtual user's state.
type user struct {
	idx      int
	browser  *device.Browser
	commerce *apps.CommerceClient
	tracking *apps.InventoryClient
	travel   *apps.TravelClient
	media    *apps.EntertainmentClient
	payOrder int
}

// Runner drives a workload against a built MC system.
type Runner struct {
	mc    *core.MC
	cfg   Config
	mix   Mix // DefaultMix
	users []*user

	lat      map[Op][]time.Duration
	failures map[Op]int
	stopped  bool
}

// NewRunner prepares a run. RegisterHandlers must already have been called
// on the system's host.
func NewRunner(mc *core.MC, cfg Config) (*Runner, error) {
	if cfg.Users <= 0 || cfg.Users > len(mc.Clients) {
		return nil, fmt.Errorf("workload: %d users but %d stations", cfg.Users, len(mc.Clients))
	}
	if cfg.ThinkMean <= 0 {
		return nil, fmt.Errorf("workload: runner needs think mean > 0, got %v", cfg.ThinkMean)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("workload: runner needs duration > 0, got %v", cfg.Duration)
	}
	r := &Runner{
		mc:       mc,
		cfg:      cfg,
		mix:      DefaultMix(),
		lat:      make(map[Op][]time.Duration),
		failures: make(map[Op]int),
	}
	origin := mc.Host.Addr()
	for i := 0; i < cfg.Users; i++ {
		cl := mc.Clients[i]
		f := &device.IModeFetcher{Client: cl.IMode}
		r.users = append(r.users, &user{
			idx:      i,
			browser:  cl.BrowserIMode(),
			commerce: &apps.CommerceClient{Fetcher: f, Origin: origin, Key: []byte("payment-demo-key")},
			tracking: &apps.InventoryClient{Fetcher: f, Origin: origin},
			travel:   &apps.TravelClient{Fetcher: f, Origin: origin},
			media:    &apps.EntertainmentClient{Fetcher: f, Origin: origin},
		})
	}
	return r, nil
}

// Run executes the workload and returns the report. It drives the
// scheduler itself.
func (r *Runner) Run() (*Report, error) {
	// Setup: every paying user needs an account, plus one merchant.
	setupDone := 0
	merchant := &apps.CommerceClient{
		Fetcher: &device.IModeFetcher{Client: r.mc.Clients[0].IMode},
		Origin:  r.mc.Host.Addr(), Key: []byte("payment-demo-key"),
	}
	merchant.OpenAccount("wl-merchant", "Merchant", 0, func(_ apps.AccountView, err error) {
		if err == nil {
			setupDone++
		}
	})
	for _, u := range r.users {
		u := u
		u.commerce.OpenAccount(fmt.Sprintf("wl-user-%d", u.idx), "User", 1_000_000,
			func(_ apps.AccountView, err error) {
				if err == nil {
					setupDone++
				}
			})
	}
	if err := r.mc.Net.Sched.RunFor(30 * time.Second); err != nil {
		return nil, err
	}
	if setupDone != len(r.users)+1 {
		return nil, fmt.Errorf("workload: setup incomplete (%d/%d accounts)", setupDone, len(r.users)+1)
	}

	start := r.mc.Net.Sched.Now()
	deadline := start + r.cfg.Duration
	for _, u := range r.users {
		r.scheduleNext(u, deadline)
	}
	if err := r.mc.Net.Sched.RunUntil(deadline + 30*time.Second); err != nil {
		return nil, err
	}
	r.stopped = true
	return r.report(), nil
}

// scheduleNext queues the user's next operation after a think time.
func (r *Runner) scheduleNext(u *user, deadline time.Duration) {
	sched := r.mc.Net.Sched
	think := time.Duration(sched.Rand().ExpFloat64() * float64(r.cfg.ThinkMean))
	sched.After(think, func() {
		if sched.Now() >= deadline || r.stopped {
			return
		}
		op := r.pickOp()
		begin := sched.Now()
		// Each operation is one traced transaction; the think-time timer has
		// no ambient span, so the root is established here and the span
		// covers exactly the interval the latency sample measures.
		tr := r.mc.Net.Tracer
		root := tr.StartTrace("workload."+string(op), trace.LayerStation)
		prev := tr.Swap(root)
		defer tr.Swap(prev)
		r.perform(u, op, func(err error) {
			tr.Finish(root)
			if err != nil {
				r.failures[op]++
			} else {
				r.lat[op] = append(r.lat[op], sched.Now()-begin)
			}
			r.scheduleNext(u, deadline)
		})
	})
}

// pickOp draws an operation from the mix.
func (r *Runner) pickOp() Op {
	total := 0
	for _, w := range r.mix {
		total += w
	}
	n := r.mc.Net.Sched.Rand().Intn(total)
	for _, op := range []Op{OpBrowse, OpPay, OpTrack, OpSearch, OpDownload} {
		n -= r.mix[op]
		if n < 0 {
			return op
		}
	}
	return OpBrowse
}

// perform executes one operation.
func (r *Runner) perform(u *user, op Op, done func(error)) {
	switch op {
	case OpBrowse:
		u.browser.Browse(r.mc.Host.Addr(), "/shop", func(_ *device.Page, err error) { done(err) })
	case OpPay:
		u.payOrder++
		u.commerce.Pay(
			fmt.Sprintf("wl-%d-%d", u.idx, u.payOrder),
			fmt.Sprintf("wl-user-%d", u.idx), "wl-merchant", 199,
			int64(r.mc.Net.Sched.Now()),
			func(_ apps.PayReceipt, err error) { done(err) })
	case OpTrack:
		u.tracking.ReportPosition(apps.TrackUpdate{
			Courier: fmt.Sprintf("wl-courier-%d", u.idx),
			X:       float64(u.idx), Y: float64(u.payOrder),
		}, done)
	case OpSearch:
		u.travel.Search("GSO", "ATL", func(_ []apps.Itinerary, err error) { done(err) })
	case OpDownload:
		u.media.Download("game1", func(b []byte, err error) {
			if err == nil && len(b) != 64<<10 {
				err = fmt.Errorf("workload: short download: %d", len(b))
			}
			done(err)
		})
	default:
		done(fmt.Errorf("workload: unknown op %q", op))
	}
}

// report aggregates the run.
func (r *Runner) report() *Report {
	rep := &Report{
		Users:    r.cfg.Users,
		Duration: r.cfg.Duration,
		Ops:      make(map[Op]OpReport),
	}
	var all []time.Duration
	for op, ls := range r.lat {
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		or := OpReport{Count: len(ls), Failures: r.failures[op]}
		if len(ls) > 0 {
			or.P50 = ls[len(ls)/2]
			or.P95 = ls[min(len(ls)-1, len(ls)*95/100)]
			or.Worst = ls[len(ls)-1]
		}
		rep.Ops[op] = or
		rep.TotalOps += len(ls)
		all = append(all, ls...)
	}
	for op, n := range r.failures {
		if _, ok := rep.Ops[op]; !ok {
			rep.Ops[op] = OpReport{Failures: n}
		}
	}
	if rep.Duration > 0 {
		rep.Throughput = float64(rep.TotalOps) / rep.Duration.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		rep.P95 = all[min(len(all)-1, len(all)*95/100)]
	}
	return rep
}
