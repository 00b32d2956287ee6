package mtcp

import (
	"math"
	"time"
)

// CUBIC constants (RFC 8312): β is the multiplicative decrease factor,
// C scales the cubic growth term, and α is the AIMD factor that makes
// the TCP-friendly (Reno-equivalent) region achieve the same average
// rate as Reno under the same loss process: α = 3(1-β)/(1+β).
const (
	cubicBeta  = 0.7
	cubicC     = 0.4
	cubicAlpha = 3 * (1 - cubicBeta) / (1 + cubicBeta)
)

// cubicCC implements CUBIC congestion control (RFC 8312). The window
// grows as a cubic function of the time since the last loss event,
// concave while approaching the pre-loss window W_max, flat near it,
// then convex when probing beyond — decoupling growth from RTT. A
// parallel Reno-rate estimate (the TCP-friendly region) floors the
// window so short-RTT flows never do worse than Reno.
//
// All time terms use the deterministic scheduler clock and float64
// arithmetic, so window trajectories are reproducible per seed.
type cubicCC struct {
	mss      float64
	initWnd  float64
	initSsth float64
	dupInfl  float64

	cwnd     float64 // bytes
	ssthresh float64 // bytes

	wMax  float64       // window (segments) at the last reduction
	k     float64       // seconds from epoch start to reach wMax
	epoch time.Duration // growth-epoch start; <0 when unset
	wEst  float64       // TCP-friendly Reno estimate (segments)
}

func newCubic(o Options) *cubicCC {
	return &cubicCC{
		mss:      mss,
		initWnd:  mss * initialCwndSegs,
		initSsth: float64(o.RcvWnd),
		dupInfl:  dupAckThreshold * mss,
	}
}

func (c *cubicCC) Name() string { return CCCubic }

func (c *cubicCC) Init(time.Duration) {
	c.cwnd = c.initWnd
	c.ssthresh = c.initSsth
	c.wMax = 0
	c.k = 0
	c.epoch = -1
	c.wEst = 0
}

func (c *cubicCC) Cwnd() int { return int(c.cwnd) }

func (c *cubicCC) OnAck(acked int, now time.Duration) {
	if c.cwnd < c.ssthresh {
		// Slow start, identical to Reno.
		inc := c.mss
		if float64(acked) < inc {
			inc = float64(acked)
		}
		c.cwnd += inc
		return
	}
	cw := c.cwnd / c.mss // segments
	if c.epoch < 0 {
		c.epoch = now
		if c.wMax < cw {
			// No prior loss (or we already grew past the old max):
			// start the convex probe from here.
			c.wMax = cw
			c.k = 0
		} else {
			c.k = math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
		}
		c.wEst = cw
	}
	t := (now - c.epoch).Seconds()
	d := t - c.k
	target := cubicC*d*d*d + c.wMax // W_cubic(t), segments
	// TCP-friendly region: grow the Reno estimate at α segments per
	// window of acknowledged data and never fall below it.
	c.wEst += cubicAlpha * float64(acked) / c.mss / cw
	if target < c.wEst {
		target = c.wEst
	}
	if target > cw {
		// Approach the target over roughly one RTT worth of ACKs.
		c.cwnd += c.mss * (target - cw) / cw
	}
}

func (c *cubicCC) OnDupAck() { c.cwnd += c.mss }

func (c *cubicCC) OnEnterRecovery(flight int, _ time.Duration) {
	c.reduce()
	c.cwnd = c.ssthresh + c.dupInfl
}

func (c *cubicCC) OnPartialAck(acked int) {
	c.cwnd -= float64(acked)
	if c.cwnd < c.mss {
		c.cwnd = c.mss
	}
}

func (c *cubicCC) OnExitRecovery() { c.cwnd = c.ssthresh }

func (c *cubicCC) OnTimeout(flight int, _ time.Duration) {
	c.reduce()
	c.cwnd = c.mss
}

// reduce records a loss event: remember the window it happened at (with
// RFC 8312 §4.6 fast convergence when losses come before regaining the
// previous max), multiply down by β, and start a new growth epoch.
func (c *cubicCC) reduce() {
	cw := c.cwnd / c.mss
	if cw < c.wMax {
		c.wMax = cw * (2 - cubicBeta) / 2
	} else {
		c.wMax = cw
	}
	c.ssthresh = maxf(c.cwnd*cubicBeta, 2*c.mss)
	c.epoch = -1
}
