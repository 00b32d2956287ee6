package imode

import (
	"bytes"
	"testing"

	"mcommerce/internal/markup/markuptest"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

func newMemoPortal(t *testing.T) *Gateway {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	node := net.NewNode("portal")
	g, err := NewGateway(node, mtcp.MustNewStack(node), mtcp.Options{})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	return g
}

// TestFilterMemo checks, over the storefront and the markup seed corpus,
// that a memo hit returns the
// cHTML a fresh filtering builds and moves every counter exactly as the
// miss did.
func TestFilterMemo(t *testing.T) {
	inputs := markuptest.Inputs(t)
	g := newMemoPortal(t)
	fresh := newMemoPortal(t)
	for _, body := range inputs {
		for _, ct := range []string{webserver.TypeHTML, ""} {
			clear(fresh.memo)
			want := fresh.filter(webserver.NewResponse(200, ct, body))
			clear(g.memo)
			var first GatewayStats
			for i := range 2 {
				before := g.Stats()
				got := g.filter(webserver.NewResponse(200, ct, body))
				after := g.Stats()
				if got.Status != want.Status || got.Header("content-type") != want.Header("content-type") || !bytes.Equal(got.Body, want.Body) {
					t.Fatalf("filtering %d (ct %q) of %q: got %q, fresh filtering %q", i, ct, body, got.Body, want.Body)
				}
				counted := GatewayStats{
					Filtered:     after.Filtered - before.Filtered,
					PassThroughs: after.PassThroughs - before.PassThroughs,
					BytesToAir:   after.BytesToAir - before.BytesToAir,
				}
				if i == 0 {
					first = counted
				} else if counted != first {
					t.Fatalf("hit (ct %q) of %q counted %+v, the miss counted %+v", ct, body, counted, first)
				}
			}
			if len(g.memo) != 1 {
				t.Fatalf("memo holds %d entries after filtering one body, want 1", len(g.memo))
			}
		}
	}
	if n := g.Stats().Filtered; n != uint64(4*len(inputs)) {
		t.Errorf("filtered = %d, want %d", n, 4*len(inputs))
	}
}
