package mobileip

import (
	"errors"
	"time"

	"mcommerce/internal/simnet"
)

// Client errors.
var (
	// ErrDenied indicates the home agent refused the registration
	// (typically an authentication failure).
	ErrDenied = errors.New("mobileip: registration denied")
	// ErrRegistrationTimeout indicates no reply arrived within the retry
	// budget.
	ErrRegistrationTimeout = errors.New("mobileip: registration timed out")
)

// Registration timing every client uses.
const (
	// bindingLifetime is the requested binding lifetime.
	bindingLifetime = 5 * time.Minute
	// retryInterval is the registration retransmission interval.
	retryInterval = time.Second
	// maxRetries bounds registration retransmissions.
	maxRetries = 3
)

// Config tunes a mobile node's Mobile IP client.
type Config struct {
	// HomeAgent is the mobile's home agent address.
	HomeAgent simnet.Addr
	// AuthKey is the mobile-home security association (may be nil).
	AuthKey []byte
}

// Client runs on a mobile node and manages its registration state. It does
// not detect movement itself: its owner calls Register when the point of
// attachment changes. The E-MIP experiment and examples/roaming call it
// directly after switching links.
type Client struct {
	node *simnet.Node
	cfg  Config
	port simnet.Port
	seq  uint64

	pending map[uint64]*pendingReg
}

type pendingReg struct {
	done    func(error)
	retries int
	timer   simnet.Timer
	req     *regRequest
	to      simnet.Addr
}

// NewClient creates a Mobile IP client on the mobile's node.
func NewClient(node *simnet.Node, cfg Config) *Client {
	c := &Client{node: node, cfg: cfg, pending: make(map[uint64]*pendingReg)}
	c.port = simnet.UDPOf(node).ListenAny(c.onReply)
	return c
}

// Register binds the mobile to the foreign agent at fa. done (optional)
// fires with nil on success, ErrDenied on refusal, or
// ErrRegistrationTimeout after retries are exhausted.
func (c *Client) Register(fa simnet.Addr, done func(error)) {
	c.seq++
	req := &regRequest{
		Mobile:   c.node.ID,
		Home:     c.cfg.HomeAgent,
		Lifetime: bindingLifetime,
		Seq:      c.seq,
		Auth:     authTag(c.cfg.AuthKey, c.node.ID, bindingLifetime, c.seq),
	}
	p := &pendingReg{done: done, req: req, to: fa}
	c.pending[c.seq] = p
	c.transmit(p)
}

func (c *Client) transmit(p *pendingReg) {
	simnet.UDPOf(c.node).Send(c.port, p.to, p.req, regWireBytes)
	p.timer = c.node.Sched().After(retryInterval, func() {
		p.retries++
		if p.retries > maxRetries {
			delete(c.pending, p.req.Seq)
			if p.done != nil {
				p.done(ErrRegistrationTimeout)
			}
			return
		}
		c.transmit(p)
	})
}

func (c *Client) onReply(_ simnet.Port, _ simnet.Addr, body any, _ int) {
	rep, ok := body.(*regReply)
	if !ok || rep.Mobile != c.node.ID {
		return
	}
	p, ok := c.pending[rep.Seq]
	if !ok {
		return
	}
	delete(c.pending, rep.Seq)
	p.timer.Cancel()
	if p.done == nil {
		return
	}
	if rep.OK {
		p.done(nil)
	} else {
		p.done(ErrDenied)
	}
}
