package core

import (
	"mcommerce/internal/database"
	"mcommerce/internal/metrics"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/security"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

// WebPort is the host computers' well-known web server port.
const WebPort simnet.Port = 80

// Host is a host computer per Section 7: "a Web server, a database server,
// and application programs and support software" on one node.
type Host struct {
	Node   *simnet.Node
	Stack  *mtcp.Stack
	Server *webserver.Server
	DB     *database.DB
	// Tokens signs and verifies user credentials for application
	// programs (Section 8 authentication).
	Tokens *security.TokenAuthority
}

// NewHost boots a host computer on a fresh node in the network. tcp
// tunes the web server's accepted connections (congestion control
// choice, window sizes); the zero value means stack defaults.
func NewHost(net *simnet.Network, name string, tokenKey []byte, tcp mtcp.Options) (*Host, error) {
	node := net.NewNode(name)
	stack, err := mtcp.NewStack(node)
	if err != nil {
		return nil, err
	}
	srv, err := webserver.New(stack, WebPort, tcp)
	if err != nil {
		return nil, err
	}
	h := &Host{
		Node:   node,
		Stack:  stack,
		Server: srv,
		DB:     database.New(),
		Tokens: security.NewTokenAuthority(tokenKey),
	}
	// The database keeps its counters behind a mutex, so they surface as
	// snapshot-time gauges rather than aliased counters.
	db := net.Metrics.Instance(metrics.Sanitize(name)).Child("db")
	db.GaugeFunc("commits", func() int64 { c, _, _ := h.DB.Stats(); return int64(c) })
	db.GaugeFunc("aborts", func() int64 { _, a, _ := h.DB.Stats(); return int64(a) })
	return h, nil
}

// Addr returns the host's web server address.
func (h *Host) Addr() simnet.Addr { return h.Server.Addr() }

// Now returns virtual time in nanoseconds, the timebase token expiry uses.
func (h *Host) Now() int64 { return int64(h.Node.Sched().Now()) }
