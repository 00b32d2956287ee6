package mobiledb

import (
	"fmt"
	"testing"
)

// device builds a store with a controllable simulated clock.
func device(name string, maxBytes int, now *int64) *Store {
	s := New(name, maxBytes)
	s.SetNow(func() int64 { return *now })
	return s
}

// roundTrip runs one full sync session between dev and sv.
func roundTrip(t *testing.T, dev *Store, sv *Server) (confirmed, overridden int) {
	t.Helper()
	req := dev.BeginUpSync()
	resp, err := sv.Apply(req)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return dev.FinishUpSync(resp)
}

func TestDisconnectedWriteSyncsAndConfirms(t *testing.T) {
	now := int64(100)
	dev := device("dev", 0, &now)
	sv := NewServer(PolicyLWW, NewMemBackend())
	if err := dev.PutTentative("cart", []byte("3 items")); err != nil {
		t.Fatalf("PutTentative: %v", err)
	}
	if dev.TentativeCount() != 1 {
		t.Fatalf("TentativeCount = %d, want 1", dev.TentativeCount())
	}
	confirmed, overridden := roundTrip(t, dev, sv)
	if confirmed != 1 || overridden != 0 {
		t.Fatalf("confirmed=%d overridden=%d, want 1/0", confirmed, overridden)
	}
	if dev.TentativeCount() != 0 {
		t.Errorf("tentative write survived confirmation")
	}
	v, ok := get(dev, "cart")
	if !ok || string(v) != "3 items" {
		t.Errorf("cart = %q %v after sync", v, ok)
	}
	e, ok, _ := sv.be.Lookup("cart")
	if !ok || e.Ver != 1 || string(e.Value) != "3 items" {
		t.Errorf("server row = %+v %v", e, ok)
	}
}

func TestSyncRetryIsIdempotent(t *testing.T) {
	now := int64(5)
	dev := device("dev", 0, &now)
	sv := NewServer(PolicyLWW, NewMemBackend())
	if err := dev.PutTentative("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	req := dev.BeginUpSync()
	// First response is lost; the device retries the session.
	if _, err := sv.Apply(req); err != nil {
		t.Fatal(err)
	}
	req2 := dev.BeginUpSync()
	resp2, err := sv.Apply(req2)
	if err != nil {
		t.Fatal(err)
	}
	confirmed, overridden := dev.FinishUpSync(resp2)
	if confirmed != 1 || overridden != 0 {
		t.Fatalf("retry confirmed=%d overridden=%d, want 1/0", confirmed, overridden)
	}
	if sv.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", sv.Duplicates)
	}
	e, _, _ := sv.be.Lookup("k")
	if e.Ver != 1 {
		t.Errorf("retry bumped version to %d; duplicate write re-applied", e.Ver)
	}
}

// Two devices write the same key while disconnected; policies decide.
func conflictPair(t *testing.T, policy Policy) (a, b *Store, sv *Server) {
	t.Helper()
	nowA, nowB := int64(10), int64(20)
	a = device("devA", 0, &nowA)
	b = device("devB", 0, &nowB)
	sv = NewServer(policy, NewMemBackend())
	if err := a.PutTentative("k", []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if err := b.PutTentative("k", []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	return a, b, sv
}

func TestConflictLWWLaterWriterWins(t *testing.T) {
	a, b, sv := conflictPair(t, PolicyLWW)
	roundTrip(t, a, sv) // WTS 10 lands first
	confirmed, overridden := roundTrip(t, b, sv)
	if confirmed != 1 || overridden != 0 {
		t.Fatalf("later writer confirmed=%d overridden=%d, want 1/0", confirmed, overridden)
	}
	e, _, _ := sv.be.Lookup("k")
	if string(e.Value) != "from-b" || e.Ver != 2 {
		t.Errorf("server row %q ver %d, want from-b ver 2", e.Value, e.Ver)
	}
	if sv.ConflictsSeen != 1 {
		t.Errorf("ConflictsSeen = %d, want 1", sv.ConflictsSeen)
	}
	// The earlier writer syncing *after* the later one must lose.
	nowC := int64(15)
	c := device("devC", 0, &nowC)
	c.SetNow(func() int64 { return nowC })
	if err := c.PutTentative("k", []byte("from-c")); err != nil {
		t.Fatal(err)
	}
	confirmed, overridden = roundTrip(t, c, sv)
	if confirmed != 0 || overridden != 1 {
		t.Fatalf("stale writer confirmed=%d overridden=%d, want 0/1", confirmed, overridden)
	}
	// devC's cache now holds the authoritative value, not its lost write.
	v, ok := get(c, "k")
	if !ok || string(v) != "from-b" {
		t.Errorf("losing device caches %q, want authoritative from-b", v)
	}
	if c.SyncConflicts != 1 {
		t.Errorf("device SyncConflicts = %d, want 1", c.SyncConflicts)
	}
}

func TestConflictServerWinsRejectsSecondWriter(t *testing.T) {
	a, b, sv := conflictPair(t, PolicyServerWins)
	roundTrip(t, a, sv)
	confirmed, overridden := roundTrip(t, b, sv)
	if confirmed != 0 || overridden != 1 {
		t.Fatalf("confirmed=%d overridden=%d, want 0/1", confirmed, overridden)
	}
	e, _, _ := sv.be.Lookup("k")
	if string(e.Value) != "from-a" || e.Ver != 1 {
		t.Errorf("server row %q ver %d, want from-a ver 1", e.Value, e.Ver)
	}
	if v, _ := get(b, "k"); string(v) != "from-a" {
		t.Errorf("rejected device caches %q, want from-a", v)
	}
}

func TestFragilePolicyLosesUpdates(t *testing.T) {
	// The baseline: blind apply, no conflict detection. The second writer
	// silently clobbers the first even though it never saw its value —
	// this is the lost update syncstorm measures.
	a, b, sv := conflictPair(t, PolicyFragile)
	roundTrip(t, a, sv)
	confirmed, _ := roundTrip(t, b, sv)
	if confirmed != 1 {
		t.Fatal("fragile apply rejected a write")
	}
	if sv.ConflictsSeen != 0 {
		t.Errorf("fragile policy detected %d conflicts; should be blind", sv.ConflictsSeen)
	}
	e, _, _ := sv.be.Lookup("k")
	if string(e.Value) != "from-b" {
		t.Errorf("server row %q", e.Value)
	}
}

func TestInvalidationStreamDropsStaleCache(t *testing.T) {
	nowA, nowB := int64(3), int64(2)
	a := device("devA", 0, &nowA)
	b := device("devB", 0, &nowB)
	sv := NewServer(PolicyLWW, NewMemBackend())
	// devB caches k via its own confirmed write.
	if err := b.PutTentative("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, b, sv)
	// devA then updates k on the server.
	if err := a.PutTentative("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, a, sv)
	if v, _ := get(b, "k"); string(v) != "old" {
		t.Fatalf("devB cache = %q before invalidation", v)
	}
	// The broadcast tick reaches devB: its stale copy must go.
	dropped := b.ApplyInvalidations(sv.InvSince(0))
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if _, ok := get(b, "k"); ok {
		t.Error("stale cache entry survived invalidation")
	}
	if b.Invalidations != 1 {
		t.Errorf("Invalidations counter = %d", b.Invalidations)
	}
	// A tentative write must NOT be dropped by a broadcast: its conflict
	// is resolved by the next sync session.
	if err := b.PutTentative("k", []byte("pending")); err != nil {
		t.Fatal(err)
	}
	if n := b.ApplyInvalidations([]Invalidation{{Key: "k", SrvVer: 99}}); n != 0 {
		t.Error("invalidation dropped a tentative write")
	}
}

func TestWriteDuringSessionStaysTentative(t *testing.T) {
	now := int64(1)
	dev := device("dev", 0, &now)
	sv := NewServer(PolicyLWW, NewMemBackend())
	if err := dev.PutTentative("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	req := dev.BeginUpSync()
	// While the request is in flight the user writes again.
	now = 2
	if err := dev.PutTentative("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	resp, err := sv.Apply(req)
	if err != nil {
		t.Fatal(err)
	}
	dev.FinishUpSync(resp)
	// v2 must still be pending, rebased on the version v1 produced.
	if dev.TentativeCount() != 1 {
		t.Fatalf("TentativeCount = %d, want 1 (v2 pending)", dev.TentativeCount())
	}
	e := dev.data["k"]
	if string(e.Value) != "v2" || e.Base != 1 {
		t.Errorf("pending entry %q base %d, want v2 base 1", e.Value, e.Base)
	}
	// Next session confirms it without conflict (base is current).
	confirmed, overridden := roundTrip(t, dev, sv)
	if confirmed != 1 || overridden != 0 {
		t.Errorf("second session confirmed=%d overridden=%d", confirmed, overridden)
	}
	srvRow, _, _ := sv.be.Lookup("k")
	if string(srvRow.Value) != "v2" || srvRow.Ver != 2 {
		t.Errorf("server row %q ver %d, want v2 ver 2", srvRow.Value, srvRow.Ver)
	}
	if sv.ConflictsSeen != 0 {
		t.Errorf("rebased write flagged as conflict")
	}
}

func TestBeginUpSyncBatchesOldestFirst(t *testing.T) {
	now := int64(1)
	dev := device("dev", 0, &now)
	for i := 0; i < 5; i++ {
		if err := dev.PutTentative(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	req := dev.BeginUpSync()
	if len(req.Writes) != 5 {
		t.Fatalf("batch = %d writes, want 5", len(req.Writes))
	}
	for i, w := range req.Writes {
		if w.Key != fmt.Sprintf("k%d", i) {
			t.Errorf("batch[%d] = %s, want k%d (oldest first)", i, w.Key, i)
		}
	}
	// The snapshot crosses the network: a write after it must not reach
	// into the request.
	if err := dev.PutTentative("k0", []byte{9}); err != nil {
		t.Fatal(err)
	}
	if v := req.Writes[0].Value; len(v) != 1 || v[0] != 0 {
		t.Errorf("snapshot value changed to %v by a later write", v)
	}
}

func TestDeleteTentativePropagates(t *testing.T) {
	now := int64(1)
	dev := device("dev", 0, &now)
	sv := NewServer(PolicyLWW, NewMemBackend())
	if err := dev.PutTentative("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, dev, sv)
	now = 2
	if err := dev.DeleteTentative("k"); err != nil {
		t.Fatal(err)
	}
	confirmed, _ := roundTrip(t, dev, sv)
	if confirmed != 1 {
		t.Fatal("delete not confirmed")
	}
	e, ok, _ := sv.be.Lookup("k")
	if !ok || !e.Deleted {
		t.Errorf("server row after delete: %+v %v", e, ok)
	}
	if _, ok := get(dev, "k"); ok {
		t.Error("deleted key still cached on device")
	}
}

// TestFragileDropLosesWrites pins the baseline's failure mode so syncstorm's
// lost-update count has a unit-level witness.
func TestFragileDropLosesWrites(t *testing.T) {
	now := int64(1)
	dev := device("dev", 0, &now)
	if err := dev.PutTentative("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := dev.PutTentative("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	req := dev.BeginUpSync()
	lost := dev.DropTentative(req)
	if lost != 2 {
		t.Fatalf("DropTentative lost %d, want 2", lost)
	}
	if dev.TentativeCount() != 0 {
		t.Error("tentative entries survived DropTentative")
	}
}

// TestInvalidationDeltaIsStable pins the zero-copy invalidation delta: a
// response shares the server's append-only log, so the ticks it carries
// must not change as later writes extend the log or a Reset replaces it,
// even while another goroutine (a device on another shard lane) reads
// them, and appending to the delta must not write into the log.
func TestInvalidationDeltaIsStable(t *testing.T) {
	now := int64(1)
	dev := device("dev", 0, &now)
	sv := NewServer(PolicyLWW, NewMemBackend())
	put := func(key string) {
		t.Helper()
		now++
		if err := dev.PutTentative(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		roundTrip(t, dev, sv)
	}
	put("a")
	put("b")
	put("c")
	if cap(sv.invLog) == len(sv.invLog) {
		t.Fatalf("setup: the log has no spare capacity for later writes to reuse")
	}
	// An empty session from a device that has consumed nothing yet.
	resp, err := sv.Apply(&UpSyncRequest{From: "late"})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Invalidation(nil), resp.Invalid...)
	if len(want) != 3 || cap(resp.Invalid) != len(resp.Invalid) {
		t.Fatalf("delta = %v (cap %d), want 3 ticks capped at their length", resp.Invalid, cap(resp.Invalid))
	}
	done := make(chan struct{})
	read := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				read <- n
				return
			default:
				for _, inv := range resp.Invalid {
					n += len(inv.Key)
				}
			}
		}
	}()
	put("d")
	_ = append(resp.Invalid, Invalidation{Key: "x", SrvVer: 99})
	if got := sv.InvSince(3); len(got) != 1 || got[0].Key != "d" {
		t.Errorf("appending to the delta overwrote the log: %v", got)
	}
	sv.Reset()
	put("e")
	put("f")
	close(done)
	<-read
	if got := sv.InvSince(0); len(got) != 2 || got[0].Key != "e" || got[1].Key != "f" {
		t.Errorf("log after Reset = %v, want the e and f ticks", got)
	}
	for i := range want {
		if resp.Invalid[i] != want[i] {
			t.Fatalf("delta changed: %v, want %v", resp.Invalid, want)
		}
	}
}
