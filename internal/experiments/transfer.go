package experiments

import (
	"time"

	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
)

// download is the bulk transfer every TCP measurement makes: a receiver
// on port 80 takes size bytes that the sender queues in one Send, and
// the driver counts what arrives in order.
type download struct {
	sched *simnet.Scheduler
	size  int
	// stop halts the scheduler when the last byte arrives.
	stop bool
	// onData, when set, sees the instant of every in-order delivery.
	onData func(now time.Duration)

	got        int           // bytes delivered so far
	doneAt     time.Duration // when the last byte arrived; 0 while incomplete
	recv, send *mtcp.Conn    // the two endpoints, once they exist
}

// start listens on to and dials it from from with opts.
func (d *download) start(from, to *mtcp.Stack, opts mtcp.Options) error {
	if err := d.listen(to); err != nil {
		return err
	}
	d.dial(from, to, opts)
	return nil
}

// listen makes port 80 on s the receiving end.
func (d *download) listen(s *mtcp.Stack) error {
	return s.Listen(80, ccOpts(mtcp.Options{}), d.accept)
}

// dial connects from to the receiver's port 80 on to, with opts under
// ccOpts, and sends the payload once the connection is up.
func (d *download) dial(from, to *mtcp.Stack, opts mtcp.Options) {
	d.send = from.Dial(simnet.Addr{Node: to.Node().ID, Port: 80}, ccOpts(opts), func(c *mtcp.Conn, err error) {
		if err == nil {
			d.push(c)
		}
	})
}

// push makes c the sender and queues the whole payload on it.
func (d *download) push(c *mtcp.Conn) {
	d.send = c
	c.Send(make([]byte, d.size))
}

// accept makes c the receiver.
func (d *download) accept(c *mtcp.Conn) {
	d.recv = c
	c.OnData(d.deliver)
}

func (d *download) deliver(b []byte) {
	now := d.sched.Now()
	if d.onData != nil {
		d.onData(now)
	}
	d.got += len(b)
	if d.got >= d.size && d.doneAt == 0 {
		d.doneAt = now
		if d.stop {
			d.sched.Stop()
		}
	}
}

// run drives the world until horizon, or until the last byte arrives
// when stop is set. ErrStopped, the only error RunUntil returns, is
// that stop.
func (d *download) run(horizon time.Duration) { _ = d.sched.RunUntil(horizon) }

// elapsed is the completion time and true, or horizon and false when
// the download did not finish.
func (d *download) elapsed(horizon time.Duration) (time.Duration, bool) {
	if d.doneAt == 0 {
		return horizon, false
	}
	return d.doneAt, true
}

// bps is the goodput of the bytes delivered so far over span.
func (d *download) bps(span time.Duration) float64 { return float64(d.got*8) / span.Seconds() }
