package cellular

import (
	"testing"

	"mcommerce/internal/simnet"
	"mcommerce/internal/wireless"
)

func TestNetAccessors(t *testing.T) {
	simn := simnet.NewNetwork(simnet.NewScheduler(1))
	cn := New(simn, EDGE, DefaultConfig())
	cell := cn.AddCell(simn.NewNode("bts"), wireless.Position{X: 7})
	mob := cn.AddMobile(simn.NewNode("mob"), wireless.Position{X: 100})

	if cn.Standard().Name != "EDGE" {
		t.Errorf("Standard = %v", cn.Standard())
	}
	if mob.InCall() {
		t.Error("InCall before any call")
	}
	if mob.Cell() != cell {
		t.Error("mobile not camped")
	}
}

func TestHangUpWithoutCallIsNoop(t *testing.T) {
	simn := simnet.NewNetwork(simnet.NewScheduler(1))
	cn := New(simn, GSM, DefaultConfig())
	cell := cn.AddCell(simn.NewNode("bts"), wireless.Position{})
	mob := cn.AddMobile(simn.NewNode("mob"), wireless.Position{X: 10})
	mob.HangUp() // no call active: must not underflow channel counts
	if cell.CallsInUse() != 0 {
		t.Errorf("CallsInUse = %d", cell.CallsInUse())
	}
}

func TestDoubleCallRejected(t *testing.T) {
	simn := simnet.NewNetwork(simnet.NewScheduler(1))
	cn := New(simn, GSM, DefaultConfig())
	cn.AddCell(simn.NewNode("bts"), wireless.Position{})
	mob := cn.AddMobile(simn.NewNode("mob"), wireless.Position{X: 10})
	if err := mob.PlaceCall(nil); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if err := mob.PlaceCall(nil); err != ErrCallActive {
		t.Errorf("second call = %v, want ErrCallActive", err)
	}
	if !mob.InCall() {
		t.Error("InCall false during call")
	}
}
