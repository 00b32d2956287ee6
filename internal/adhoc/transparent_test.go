package adhoc_test

import (
	"strings"
	"testing"
	"time"

	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

// TestHTTPOverMeshTransparently is the full "business transactions over an
// ad hoc network" stack: with transparent forwarding enabled, an
// unmodified TCP + web-server pair works across a three-hop mesh — the
// buyer's browser talks to a shop hosted on another handheld, no
// infrastructure anywhere.
func TestHTTPOverMeshTransparently(t *testing.T) {
	m := newMesh(t, 11, 4, 80) // 0 and 3 are three hops apart
	for _, r := range m.routers {
		r.EnableTransparentForwarding()
	}

	// The "seller" device hosts a catalog on its own node.
	sellerStack := mtcp.MustNewStack(m.nodes[3])
	srv, err := webserver.New(sellerStack, 80, mtcp.Options{})
	if err != nil {
		t.Fatalf("seller server: %v", err)
	}
	srv.Handle("/stall", func(r *webserver.Request) *webserver.Response {
		return webserver.HTML(`<html><head><title>Stall 42</title></head>
			<body><p>Fresh widgets, 7.50 each</p></body></html>`)
	})

	// The "buyer" device runs a plain HTTP client.
	buyer := webserver.NewClient(mtcp.MustNewStack(m.nodes[0]), mtcp.Options{
		// Generous handshake timer: the first SYN triggers route
		// discovery and may be re-sent once routes exist.
		RTOInitial: 500 * time.Millisecond,
	})
	var got *webserver.Response
	buyer.Get(simnet.Addr{Node: m.nodes[3].ID, Port: 80}, "/stall", nil,
		func(r *webserver.Response, err error) {
			if err != nil {
				t.Errorf("get over mesh: %v", err)
				return
			}
			got = r
		})
	if err := m.net.Sched.RunFor(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got == nil || got.Status != 200 {
		t.Fatalf("response = %+v", got)
	}
	if !strings.Contains(string(got.Body), "Fresh widgets") {
		t.Errorf("body = %q", got.Body)
	}
	// The intermediates must actually have relayed TCP traffic.
	relayed := uint64(0)
	for _, r := range m.routers[1:3] {
		relayed += r.Stats().DataForwarded
	}
	if relayed < 6 {
		t.Errorf("intermediate data forwards = %d; TCP did not ride the mesh", relayed)
	}
}
