package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/mtcp"
)

// HandoffSweep quantifies the paper's "frequent handoffs and
// disconnections" cause of mobile TCP trouble: a fixed-size download runs
// under periodic connectivity blackouts at increasing frequency, with and
// without the fast-retransmission-on-reconnection signal of [2]. The shape
// to reproduce: completion time grows with disconnection frequency, and
// the reconnection signal recovers most of the loss.
func HandoffSweep(seed int64) *Result {
	res := newResult("E-TCP(c)", "Disconnection-frequency sweep (1.5 MB download, 400 ms blackouts)",
		"blackout period", "standard TCP", "with reconnect signal [2]", "improvement")

	const size = 1536 << 10
	const horizon = 30 * time.Minute
	periods := []time.Duration{0, 5 * time.Second, 2 * time.Second, time.Second}
	for _, period := range periods {
		// First blackout early so even fast transfers meet disconnections;
		// period 0 is the no-blackout baseline.
		length := 400 * time.Millisecond
		if period == 0 {
			length = 0
		}
		plain, _ := blackoutRun(seed, size, time.Second, length, period, false, horizon)
		fast, _ := blackoutRun(seed, size, time.Second, length, period, true, horizon)
		label := "none"
		if period > 0 {
			label = fmt.Sprintf("every %s", period)
		}
		improvement := "-"
		if period > 0 && fast > 0 {
			improvement = fmt.Sprintf("%.0f%%", 100*(1-float64(fast)/float64(plain)))
		}
		res.AddRow(label, fmtDur(plain), fmtDur(fast), improvement)
		key := fmt.Sprintf("period_%s", period)
		res.Set(key+"/plain_ms", float64(plain.Milliseconds()))
		res.Set(key+"/fast_ms", float64(fast.Milliseconds()))
	}
	res.Note("each blackout kills all in-flight segments; without [2] the sender waits out its (possibly backed-off) RTO after every reconnection")
	res.Note("the crossover is real: at rare disconnections the RTO fires soon anyway and [2]'s provoked fast retransmit just shrinks the window (slightly negative); as disconnections become frequent, compounded RTO backoff dominates and [2] wins big")
	return res
}

// blackoutRun downloads size bytes fixed→mobile through wireless
// blackouts of the given length: the first at first, then one every
// period (period 0: only the first; length 0: none). With signal the
// mobile fires the reconnection signal of [2] as each blackout lifts.
// It returns the completion time (horizon if incomplete) and the idle gap
// between the first blackout lifting and the next delivery.
func blackoutRun(seed int64, size int, first, length, period time.Duration, signal bool, horizon time.Duration) (elapsed, idle time.Duration) {
	p := newTCPPath(seed, 0)
	heal := first + length
	var firstAfter time.Duration
	d := &download{sched: p.net.Sched, size: size, stop: true, onData: func(now time.Duration) {
		if firstAfter == 0 && now > heal {
			firstAfter = now
		}
	}}
	if err := d.start(p.fs, p.ms, mtcp.Options{}); err != nil {
		return 0, 0
	}
	if length > 0 {
		var schedule func(at time.Duration)
		schedule = func(at time.Duration) {
			p.net.Sched.At(at, func() {
				if d.doneAt != 0 {
					return
				}
				p.wireless.IfaceB().Up = false
				p.net.Sched.After(length, func() {
					p.wireless.IfaceB().Up = true
					if signal && d.recv != nil {
						d.recv.SignalReconnect()
					}
				})
				if period > 0 {
					schedule(at + period)
				}
			})
		}
		schedule(first)
	}
	d.run(horizon)
	elapsed, _ = d.elapsed(horizon)
	if firstAfter > heal {
		idle = firstAfter - heal
	}
	return elapsed, idle
}
