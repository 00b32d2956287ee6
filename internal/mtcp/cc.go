package mtcp

import (
	"fmt"
	"time"
)

// CongestionControl is the pluggable window-evolution algorithm behind a
// Conn. The connection owns the loss-recovery *state machine* (duplicate
// ACK counting, when to retransmit, NewReno partial-ACK orchestration);
// the algorithm owns the congestion window's value. All sizes are bytes.
//
// Implementations must be deterministic: the same call sequence with the
// same arguments yields the same windows, because simulation output is
// pinned byte-identical per seed at any shard count.
type CongestionControl interface {
	// Name identifies the algorithm ("reno", "cubic").
	Name() string
	// Init (re)sets the algorithm to its initial window; now is the
	// scheduler clock at connection creation.
	Init(now time.Duration)
	// Cwnd returns the current congestion window in bytes.
	Cwnd() int
	// OnAck processes a cumulative acknowledgement of acked new bytes
	// while not in recovery (slow start or congestion avoidance).
	OnAck(acked int, now time.Duration)
	// OnDupAck inflates the window for a duplicate ACK received during
	// fast recovery (each dup means one segment left the network).
	OnDupAck()
	// OnEnterRecovery begins fast recovery after dupAckThreshold
	// duplicates; flight is the bytes outstanding at the loss signal.
	OnEnterRecovery(flight int, now time.Duration)
	// OnPartialAck deflates the window by the bytes a NewReno partial
	// ACK covered while recovery continues.
	OnPartialAck(acked int)
	// OnExitRecovery completes fast recovery (full window acknowledged).
	OnExitRecovery()
	// OnTimeout collapses the window after an RTO expiry; flight is the
	// bytes outstanding when the timer fired.
	OnTimeout(flight int, now time.Duration)
}

// ParseCC validates a congestion-control name from user input (command
// line flags, configs). The empty string normalizes to Reno.
func ParseCC(s string) (string, error) {
	switch s {
	case "", CCReno:
		return CCReno, nil
	case CCCubic:
		return CCCubic, nil
	}
	return "", fmt.Errorf("mtcp: unknown congestion control %q (want %s or %s)", s, CCReno, CCCubic)
}

// newCongestionControl builds the algorithm selected by o.CC. Options
// must already have defaults applied.
func newCongestionControl(o Options) CongestionControl {
	switch o.CC {
	case "", CCReno:
		return newReno(o)
	case CCCubic:
		return newCubic(o)
	}
	panic(fmt.Sprintf("mtcp: unknown congestion control %q (want %s or %s)", o.CC, CCReno, CCCubic))
}

// renoCC is classic Reno AIMD (RFC 5681): slow start to ssthresh, then
// one MSS per RTT, halving on loss. Windows are float64 so congestion
// avoidance accumulates fractional MSS per ACK exactly like the
// pre-refactor inline implementation.
type renoCC struct {
	mss      float64
	initWnd  float64
	initSsth float64
	dupInfl  float64 // inflation applied on entering recovery

	cwnd     float64
	ssthresh float64
}

func newReno(o Options) *renoCC {
	return &renoCC{
		mss:      mss,
		initWnd:  mss * initialCwndSegs,
		initSsth: float64(o.RcvWnd),
		dupInfl:  dupAckThreshold * mss,
	}
}

func (r *renoCC) Name() string { return CCReno }

func (r *renoCC) Init(time.Duration) {
	r.cwnd = r.initWnd
	r.ssthresh = r.initSsth
}

func (r *renoCC) Cwnd() int { return int(r.cwnd) }

func (r *renoCC) OnAck(acked int, _ time.Duration) {
	if r.cwnd < r.ssthresh {
		// Slow start: one MSS per ACK (bounded by bytes acked).
		inc := r.mss
		if float64(acked) < inc {
			inc = float64(acked)
		}
		r.cwnd += inc
		return
	}
	// Congestion avoidance: ~one MSS per RTT.
	r.cwnd += r.mss * r.mss / r.cwnd
}

func (r *renoCC) OnDupAck() { r.cwnd += r.mss }

func (r *renoCC) OnEnterRecovery(flight int, _ time.Duration) {
	r.ssthresh = maxf(float64(flight)/2, 2*r.mss)
	r.cwnd = r.ssthresh + r.dupInfl
}

func (r *renoCC) OnPartialAck(acked int) {
	r.cwnd -= float64(acked)
	if r.cwnd < r.mss {
		r.cwnd = r.mss
	}
}

func (r *renoCC) OnExitRecovery() { r.cwnd = r.ssthresh }

func (r *renoCC) OnTimeout(flight int, _ time.Duration) {
	r.ssthresh = maxf(float64(flight)/2, 2*r.mss)
	r.cwnd = r.mss
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
