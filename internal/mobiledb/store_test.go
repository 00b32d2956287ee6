package mobiledb

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

// get returns key's live value, reading the store's map directly: the
// store's callers only write and sync, so it has no read accessor.
func get(s *Store, key string) ([]byte, bool) {
	e, ok := s.data[key]
	if !ok || e.Deleted {
		return nil, false
	}
	return e.Value, true
}

// liveKeys returns the store's live keys in sorted order.
func liveKeys(s *Store) []string {
	var out []string
	for k, e := range s.data {
		if !e.Deleted {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func TestPutGetDelete(t *testing.T) {
	s := New("dev", 0)
	if err := s.Put("cart:1", []byte("3 widgets")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok := get(s, "cart:1")
	if !ok || string(v) != "3 widgets" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if err := s.Delete("cart:1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok := get(s, "cart:1"); ok {
		t.Error("deleted key still readable")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := New("dev", 0)
	if err := s.Put("", nil); !errors.Is(err, ErrKeyEmpty) {
		t.Errorf("Put: %v", err)
	}
	if err := s.Delete(""); !errors.Is(err, ErrKeyEmpty) {
		t.Errorf("Delete: %v", err)
	}
}

func TestFootprintBudgetEnforced(t *testing.T) {
	s := New("dev", 200)
	if err := s.Put("a", make([]byte, 100)); err != nil {
		t.Fatalf("first Put: %v", err)
	}
	if err := s.Put("b", make([]byte, 100)); !errors.Is(err, ErrFull) {
		t.Fatalf("over-budget Put: %v, want ErrFull", err)
	}
	// Overwriting with a smaller value frees space.
	if err := s.Put("a", make([]byte, 10)); err != nil {
		t.Fatalf("shrink Put: %v", err)
	}
	if err := s.Put("b", make([]byte, 100)); err != nil {
		t.Fatalf("Put after shrink: %v", err)
	}
	if s.UsedBytes() > 200 {
		t.Errorf("UsedBytes = %d over budget", s.UsedBytes())
	}
}

func TestPutCopiesValue(t *testing.T) {
	s := New("dev", 0)
	v := []byte("abc")
	if err := s.Put("k", v); err != nil {
		t.Fatal(err)
	}
	v[0] = 'X'
	if got, _ := get(s, "k"); string(got) != "abc" {
		t.Error("stored value mutated through the caller's slice")
	}
}

func TestBasicSyncPropagation(t *testing.T) {
	dev := New("device", 0)
	srv := New("server", 0)
	if err := dev.Put("order:1", []byte("pending")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Put("catalog:1", []byte("widget")); err != nil {
		t.Fatal(err)
	}
	sent, recv := dev.SyncWith(srv)
	if sent != 1 || recv != 1 {
		t.Errorf("sync moved sent=%d recv=%d, want 1,1", sent, recv)
	}
	if v, ok := get(srv, "order:1"); !ok || string(v) != "pending" {
		t.Error("device change missing on server")
	}
	if v, ok := get(dev, "catalog:1"); !ok || string(v) != "widget" {
		t.Error("server change missing on device")
	}
	// A second sync with no new writes moves nothing.
	sent, recv = dev.SyncWith(srv)
	if sent != 0 || recv != 0 {
		t.Errorf("idle sync moved sent=%d recv=%d", sent, recv)
	}
}

func TestDeleteTombstonePropagates(t *testing.T) {
	dev := New("device", 0)
	srv := New("server", 0)
	if err := srv.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	dev.SyncWith(srv)
	if _, ok := get(dev, "k"); !ok {
		t.Fatal("initial sync failed")
	}
	if err := dev.Delete("k"); err != nil {
		t.Fatal(err)
	}
	dev.SyncWith(srv)
	if _, ok := get(srv, "k"); ok {
		t.Error("delete did not propagate")
	}
}

func TestLastWriterWinsConflict(t *testing.T) {
	dev := New("device", 0)
	srv := New("server", 0)
	if err := srv.Put("k", []byte("base")); err != nil {
		t.Fatal(err)
	}
	dev.SyncWith(srv)

	// Concurrent divergent updates. The device writes twice, so its clock
	// is higher and it must win.
	if err := srv.Put("k", []byte("server-version")); err != nil {
		t.Fatal(err)
	}
	if err := dev.Put("k", []byte("device-v1")); err != nil {
		t.Fatal(err)
	}
	if err := dev.Put("k", []byte("device-v2")); err != nil {
		t.Fatal(err)
	}
	dev.SyncWith(srv)
	dv, _ := get(dev, "k")
	sv, _ := get(srv, "k")
	if !bytes.Equal(dv, sv) {
		t.Fatalf("replicas diverged: %q vs %q", dv, sv)
	}
	if string(dv) != "device-v2" {
		t.Errorf("winner = %q, want device-v2 (higher clock)", dv)
	}
}

func TestEqualClockTiebreakByName(t *testing.T) {
	a := New("alpha", 0)
	b := New("beta", 0)
	// Same clock value (1) on both replicas.
	if err := a.Put("k", []byte("from-alpha")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("k", []byte("from-beta")); err != nil {
		t.Fatal(err)
	}
	a.SyncWith(b)
	av, _ := get(a, "k")
	bv, _ := get(b, "k")
	if !bytes.Equal(av, bv) {
		t.Fatalf("diverged: %q vs %q", av, bv)
	}
	if string(av) != "from-beta" {
		t.Errorf("tiebreak winner = %q, want beta (lexicographically larger name)", av)
	}
}

func TestHubAndSpokeRelay(t *testing.T) {
	// device A -> server -> device B: changes relay through the hub.
	a := New("dev-a", 0)
	b := New("dev-b", 0)
	hub := New("server", 0)
	if err := a.Put("note", []byte("hello from A")); err != nil {
		t.Fatal(err)
	}
	a.SyncWith(hub)
	b.SyncWith(hub)
	v, ok := get(b, "note")
	if !ok || string(v) != "hello from A" {
		t.Fatalf("relay failed: %q %v", v, ok)
	}
	// And back: B's reply reaches A on the next round.
	if err := b.Put("reply", []byte("hi from B")); err != nil {
		t.Fatal(err)
	}
	b.SyncWith(hub)
	a.SyncWith(hub)
	if v, ok := get(a, "reply"); !ok || string(v) != "hi from B" {
		t.Fatal("reverse relay failed")
	}
}

func TestSyncWireEncoding(t *testing.T) {
	dev := New("device", 0)
	srv := New("server", 0)
	if err := dev.Put("k", []byte{0x00, 0xFF, 0x7F}); err != nil {
		t.Fatal(err)
	}
	req := dev.BeginSync(srv.Name())
	wire, err := EncodeSyncRequest(req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	req2, err := DecodeSyncRequest(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp := srv.ServeSync(req2)
	rwire, err := EncodeSyncResponse(resp)
	if err != nil {
		t.Fatalf("encode resp: %v", err)
	}
	resp2, err := DecodeSyncResponse(rwire)
	if err != nil {
		t.Fatalf("decode resp: %v", err)
	}
	dev.FinishSync(req, resp2)
	if v, ok := get(srv, "k"); !ok || !bytes.Equal(v, []byte{0x00, 0xFF, 0x7F}) {
		t.Error("binary value corrupted over the wire")
	}
}

func TestOversizedRemoteEntrySkipped(t *testing.T) {
	dev := New("device", 100)
	srv := New("server", 0)
	if err := srv.Put("huge", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	req := dev.BeginSync(srv.Name())
	resp := srv.ServeSync(req)
	dev.FinishSync(req, resp)
	if _, ok := get(dev, "huge"); ok {
		t.Error("oversized entry applied despite budget")
	}
}

// Property: after random divergent writes on two replicas, one sync round
// in each direction converges them to identical state.
func TestSyncConvergenceProperty(t *testing.T) {
	type wop struct {
		OnA bool
		Del bool
		Key uint8
		Val uint16
	}
	prop := func(ops []wop) bool {
		a := New("a", 0)
		b := New("b", 0)
		for _, op := range ops {
			s := a
			if !op.OnA {
				s = b
			}
			key := fmt.Sprintf("k%d", op.Key%24)
			if op.Del {
				if err := s.Delete(key); err != nil {
					return false
				}
			} else {
				if err := s.Put(key, []byte(fmt.Sprint(op.Val))); err != nil {
					return false
				}
			}
		}
		a.SyncWith(b)
		b.SyncWith(a)
		ka, kb := liveKeys(a), liveKeys(b)
		if len(ka) != len(kb) {
			return false
		}
		for i := range ka {
			if ka[i] != kb[i] {
				return false
			}
			va, _ := get(a, ka[i])
			vb, _ := get(b, kb[i])
			if !bytes.Equal(va, vb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
