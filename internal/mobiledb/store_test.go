package mobiledb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

func TestPutGetDelete(t *testing.T) {
	s := New("dev", 0)
	if err := s.PutTentative("cart:1", []byte("3 widgets")); err != nil {
		t.Fatalf("PutTentative: %v", err)
	}
	v, ok := get(s, "cart:1")
	if !ok || string(v) != "3 widgets" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if err := s.DeleteTentative("cart:1"); err != nil {
		t.Fatalf("DeleteTentative: %v", err)
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
	if err := s.PutTentative("", nil); !errors.Is(err, ErrKeyEmpty) {
		t.Errorf("PutTentative: %v", err)
	}
	if err := s.DeleteTentative(""); !errors.Is(err, ErrKeyEmpty) {
		t.Errorf("DeleteTentative: %v", err)
	}
}

func TestFootprintBudgetEnforced(t *testing.T) {
	s := New("dev", 200)
	if err := s.PutTentative("a", make([]byte, 100)); err != nil {
		t.Fatalf("first PutTentative: %v", err)
	}
	if err := s.PutTentative("b", make([]byte, 100)); !errors.Is(err, ErrFull) {
		t.Fatalf("over-budget PutTentative: %v, want ErrFull", err)
	}
	// Overwriting with a smaller value frees space.
	if err := s.PutTentative("a", make([]byte, 10)); err != nil {
		t.Fatalf("shrink PutTentative: %v", err)
	}
	if err := s.PutTentative("b", make([]byte, 100)); err != nil {
		t.Fatalf("PutTentative after shrink: %v", err)
	}
	if s.UsedBytes() > 200 {
		t.Errorf("UsedBytes = %d over budget", s.UsedBytes())
	}
}

func TestPutCopiesValue(t *testing.T) {
	s := New("dev", 0)
	v := []byte("abc")
	if err := s.PutTentative("k", v); err != nil {
		t.Fatal(err)
	}
	v[0] = 'X'
	if got, _ := get(s, "k"); string(got) != "abc" {
		t.Error("stored value mutated through the caller's slice")
	}
}

func TestBasicSyncPropagation(t *testing.T) {
	now := int64(1)
	dev := device("device", 0, &now)
	sv := NewServer(PolicyLWW, NewMemBackend())
	if err := dev.PutTentative("order:1", []byte("pending")); err != nil {
		t.Fatal(err)
	}
	req := dev.BeginUpSync()
	resp, err := sv.Apply(req)
	if err != nil {
		t.Fatal(err)
	}
	if confirmed, _ := dev.FinishUpSync(resp); len(req.Writes) != 1 || confirmed != 1 {
		t.Errorf("session shipped %d writes and confirmed %d, want 1, 1", len(req.Writes), confirmed)
	}
	if e, ok, _ := sv.be.Lookup("order:1"); !ok || string(e.Value) != "pending" {
		t.Error("device write missing on server")
	}
	// A second session with no new writes ships and confirms nothing.
	if req := dev.BeginUpSync(); len(req.Writes) != 0 {
		t.Errorf("idle session ships %d writes", len(req.Writes))
	}
	if confirmed, overridden := roundTrip(t, dev, sv); confirmed+overridden != 0 {
		t.Errorf("idle session: confirmed=%d overridden=%d", confirmed, overridden)
	}
}

// TestDeleteTombstonePropagates: a delete reaches another device's cached
// copy through the invalidation ticks its next sync response carries.
func TestDeleteTombstonePropagates(t *testing.T) {
	nowA, nowB := int64(2), int64(1)
	a := device("dev-a", 0, &nowA)
	b := device("dev-b", 0, &nowB)
	sv := NewServer(PolicyLWW, NewMemBackend())
	if err := b.PutTentative("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, b, sv)
	if err := a.DeleteTentative("k"); err != nil {
		t.Fatal(err)
	}
	if confirmed, _ := roundTrip(t, a, sv); confirmed != 1 {
		t.Fatal("later delete not confirmed")
	}
	if e, _, _ := sv.be.Lookup("k"); !e.Deleted {
		t.Fatalf("server row after delete: %+v", e)
	}
	if _, ok := get(b, "k"); !ok {
		t.Fatal("setup: dev-b lost its copy before syncing")
	}
	roundTrip(t, b, sv)
	if _, ok := get(b, "k"); ok {
		t.Error("deleted key still cached on dev-b after its next sync")
	}
}

// TestLastWriterWinsConflict: a device that writes a key twice offline
// uploads its latest value, based on the version it last saw, and wins
// against an earlier concurrent write.
func TestLastWriterWinsConflict(t *testing.T) {
	nowDev, nowOther := int64(1), int64(2)
	dev := device("device", 0, &nowDev)
	other := device("other", 0, &nowOther)
	sv := NewServer(PolicyLWW, NewMemBackend())
	if err := dev.PutTentative("k", []byte("base")); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, dev, sv)

	// Concurrent divergent updates: other reaches the server first, dev
	// writes twice later in simulated time.
	if err := other.PutTentative("k", []byte("other-version")); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, other, sv)
	nowDev = 3
	if err := dev.PutTentative("k", []byte("device-v1")); err != nil {
		t.Fatal(err)
	}
	nowDev = 4
	if err := dev.PutTentative("k", []byte("device-v2")); err != nil {
		t.Fatal(err)
	}
	req := dev.BeginUpSync()
	if len(req.Writes) != 1 || req.Writes[0].Base != 1 {
		t.Fatalf("session = %+v, want one write based on version 1", req.Writes)
	}
	resp, err := sv.Apply(req)
	if err != nil {
		t.Fatal(err)
	}
	if confirmed, _ := dev.FinishUpSync(resp); confirmed != 1 || !resp.Results[0].Conflict {
		t.Fatalf("confirmed=%d, verdict %+v; want one write confirmed over a conflict", confirmed, resp.Results[0])
	}
	dv, _ := get(dev, "k")
	row, _, _ := sv.be.Lookup("k")
	if !bytes.Equal(dv, row.Value) || string(dv) != "device-v2" || row.Ver != 3 {
		t.Errorf("device %q, server %q ver %d; want both device-v2 at ver 3", dv, row.Value, row.Ver)
	}
}

// TestEqualClockTiebreakByName: two writes of one key at the same
// simulated time resolve by writer name, whichever syncs first.
func TestEqualClockTiebreakByName(t *testing.T) {
	for _, alphaFirst := range []bool{true, false} {
		now := int64(5)
		a := device("alpha", 0, &now)
		b := device("beta", 0, &now)
		sv := NewServer(PolicyLWW, NewMemBackend())
		if err := a.PutTentative("k", []byte("from-alpha")); err != nil {
			t.Fatal(err)
		}
		if err := b.PutTentative("k", []byte("from-beta")); err != nil {
			t.Fatal(err)
		}
		if alphaFirst {
			roundTrip(t, a, sv)
			roundTrip(t, b, sv)
			roundTrip(t, a, sv) // the invalidation drops alpha's stale copy
		} else {
			roundTrip(t, b, sv)
			roundTrip(t, a, sv)
		}
		row, _, _ := sv.be.Lookup("k")
		if string(row.Value) != "from-beta" {
			t.Errorf("alpha first %v: winner = %q, want beta (lexicographically larger name)", alphaFirst, row.Value)
		}
		if v, ok := get(a, "k"); ok && string(v) != "from-beta" {
			t.Errorf("alpha first %v: alpha caches %q", alphaFirst, v)
		}
	}
}

// TestSyncWireEncoding: the inventory service ships up-sync sessions as
// JSON; binary values survive the round trip both ways.
func TestSyncWireEncoding(t *testing.T) {
	now := int64(1)
	dev := device("device", 0, &now)
	sv := NewServer(PolicyLWW, NewMemBackend())
	val := []byte{0x00, 0xFF, 0x7F}
	if err := dev.PutTentative("k", val); err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(dev.BeginUpSync())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var req UpSyncRequest
	if err := json.Unmarshal(wire, &req); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp, err := sv.Apply(&req)
	if err != nil {
		t.Fatal(err)
	}
	rwire, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("encode resp: %v", err)
	}
	var resp2 UpSyncResponse
	if err := json.Unmarshal(rwire, &resp2); err != nil {
		t.Fatalf("decode resp: %v", err)
	}
	if confirmed, _ := dev.FinishUpSync(&resp2); confirmed != 1 || dev.TentativeCount() != 0 {
		t.Errorf("confirmed %d, %d still tentative", confirmed, dev.TentativeCount())
	}
	if e, ok, _ := sv.be.Lookup("k"); !ok || !bytes.Equal(e.Value, val) {
		t.Error("binary value corrupted over the wire")
	}
	if v, _ := get(dev, "k"); !bytes.Equal(v, val) {
		t.Error("binary value corrupted on the way back")
	}
}

// TestOversizedRemoteEntrySkipped: a tight-budget device whose write is
// overridden by a value too large for its footprint drops its local copy
// instead; the server keeps the data.
func TestOversizedRemoteEntrySkipped(t *testing.T) {
	now := int64(1)
	big := device("big", 0, &now)
	small := device("small", 100, &now)
	sv := NewServer(PolicyServerWins, NewMemBackend())
	if err := big.PutTentative("k", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, big, sv)
	if err := small.PutTentative("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if confirmed, overridden := roundTrip(t, small, sv); confirmed != 0 || overridden != 1 {
		t.Fatalf("confirmed=%d overridden=%d, want 0/1", confirmed, overridden)
	}
	if _, ok := small.data["k"]; ok {
		t.Error("overridden write kept despite the budget")
	}
	if small.UsedBytes() != 0 || small.TentativeCount() != 0 {
		t.Errorf("UsedBytes = %d, TentativeCount = %d after the drop", small.UsedBytes(), small.TentativeCount())
	}
	if row, _, _ := sv.be.Lookup("k"); len(row.Value) != 1000 {
		t.Errorf("server row holds %d bytes, want 1000", len(row.Value))
	}
}

// Property: after random offline writes and deletes on two devices and
// the sync order a, b, a, b, nothing is tentative and every entry either
// device still holds is the server's current row, under every policy.
func TestSyncConvergenceProperty(t *testing.T) {
	type wop struct {
		OnA bool
		Del bool
		Key uint8
		Val uint16
	}
	for _, policy := range []Policy{PolicyLWW, PolicyServerWins, PolicyFragile} {
		prop := func(ops []wop) bool {
			now := int64(0)
			a, b := device("a", 0, &now), device("b", 0, &now)
			sv := NewServer(policy, NewMemBackend())
			for _, op := range ops {
				now++
				s := a
				if !op.OnA {
					s = b
				}
				key := fmt.Sprintf("k%d", op.Key%24)
				var err error
				if op.Del {
					err = s.DeleteTentative(key)
				} else {
					err = s.PutTentative(key, []byte(fmt.Sprint(op.Val)))
				}
				if err != nil {
					return false
				}
			}
			for _, s := range []*Store{a, b, a, b} {
				roundTrip(t, s, sv)
			}
			for _, s := range []*Store{a, b} {
				for key, e := range s.data {
					row, ok, _ := sv.be.Lookup(key)
					if e.Tentative || e.Deleted || !ok || row.Deleted ||
						row.Ver != e.SrvVer || !bytes.Equal(row.Value, e.Value) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", policy, err)
		}
	}
}
