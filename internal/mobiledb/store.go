package mobiledb

import (
	"errors"
	"fmt"
	"sort"
)

// Errors returned by the store.
var (
	// ErrFull reports that a write would exceed the store's byte budget.
	ErrFull = errors.New("mobiledb: store full")
	// ErrKeyEmpty reports an empty key.
	ErrKeyEmpty = errors.New("mobiledb: empty key")
)

// Entry is one versioned record, including deletion tombstones. Entries are
// the unit the sync protocol ships.
type Entry struct {
	Key     string
	Value   []byte
	Deleted bool
	// Clock is the Lamport timestamp of the writing operation; together
	// with Origin it decides last-writer-wins and never changes once
	// written.
	Clock uint64
	// Origin is the replica that performed the write (tie-break).
	Origin string
	// Seq is the holding replica's local log position for the entry. It
	// is reassigned every time an entry is installed somewhere, so sync
	// watermarks ("send me what I haven't seen") work even for entries
	// relayed between replicas. It plays no part in conflict resolution.
	Seq uint64

	// Disconnected-transaction state (device/server sync; zero for plain
	// peer-to-peer replicas).

	// Tentative marks a disconnected write that no server has accepted
	// yet. It stays tentative until a sync session's verdict arrives.
	Tentative bool
	// Base is the server version this write was derived from; the server
	// detects a conflict when its current version has moved past Base.
	Base uint64
	// SrvVer is the server version of a confirmed entry (0 = never
	// confirmed).
	SrvVer uint64
	// WTS is the write's simulated-time timestamp; the last-writer-wins
	// policy orders conflicting writes by (WTS, Origin).
	WTS int64
}

// newer reports whether e should win over o under last-writer-wins.
func (e *Entry) newer(o *Entry) bool {
	if e.Clock != o.Clock {
		return e.Clock > o.Clock
	}
	return e.Origin > o.Origin
}

// size is the entry's footprint charge.
func (e *Entry) size() int { return len(e.Key) + len(e.Value) + 32 }

// peerState tracks sync progress with one peer.
type peerState struct {
	// sentThrough is the local log position through which our changes
	// have been acknowledged by the peer.
	sentThrough uint64
	// recvThrough is the peer's log position we have synced through.
	recvThrough uint64
}

// Store is a small-footprint embedded key-value store with sync support.
// It is not safe for concurrent use; handheld applications are
// single-threaded in the simulation.
type Store struct {
	name     string
	maxBytes int
	used     int
	clock    uint64
	seq      uint64
	data     map[string]*Entry
	peers    map[string]*peerState

	// now supplies the simulated-time write timestamp for tentative
	// writes (SetNow); nil means WTS stays zero.
	now func() int64

	// Conflicts counts remote entries that lost last-writer-wins locally.
	Conflicts uint64
	// TentativePuts counts disconnected writes; SyncConflicts counts
	// server verdicts that overrode a tentative write; Invalidations
	// counts cache entries dropped by the server's invalidation stream.
	TentativePuts, SyncConflicts, Invalidations uint64
}

// New creates a store. name must be unique among replicas (it breaks
// last-writer-wins ties). maxBytes <= 0 means unlimited.
func New(name string, maxBytes int) *Store {
	return &Store{
		name:     name,
		maxBytes: maxBytes,
		data:     make(map[string]*Entry),
		peers:    make(map[string]*peerState),
	}
}

// SetNow installs the simulated-time source used to timestamp tentative
// writes (simnet callers pass the scheduler's clock). Without it, WTS
// stays zero and last-writer-wins degrades to the Origin tie-break.
func (s *Store) SetNow(now func() int64) { s.now = now }

func (s *Store) nowTS() int64 {
	if s.now == nil {
		return 0
	}
	return s.now()
}

// Name returns the replica name.
func (s *Store) Name() string { return s.name }

// UsedBytes returns the current footprint.
func (s *Store) UsedBytes() int { return s.used }

// Len returns the number of live (non-tombstone) keys.
func (s *Store) Len() int {
	n := 0
	for _, e := range s.data {
		if !e.Deleted {
			n++
		}
	}
	return n
}

// Put stores a value. It fails with ErrFull when the byte budget would be
// exceeded (the paper's small-footprint constraint is hard).
func (s *Store) Put(key string, value []byte) error {
	if key == "" {
		return ErrKeyEmpty
	}
	s.clock++
	e := &Entry{
		Key:    key,
		Value:  append([]byte(nil), value...),
		Clock:  s.clock,
		Origin: s.name,
	}
	return s.install(e)
}

// Delete removes a key, leaving a tombstone for sync.
func (s *Store) Delete(key string) error {
	if key == "" {
		return ErrKeyEmpty
	}
	s.clock++
	return s.install(&Entry{Key: key, Deleted: true, Clock: s.clock, Origin: s.name})
}

// install writes an entry if it wins LWW; local writes always win (their
// clock is fresh). The footprint budget is checked first.
func (s *Store) install(e *Entry) error {
	old := s.data[e.Key]
	delta := e.size()
	if old != nil {
		delta -= old.size()
	}
	if s.maxBytes > 0 && s.used+delta > s.maxBytes {
		// Undoing the clock bump for a failed local write is unnecessary —
		// clocks only need monotonicity.
		return fmt.Errorf("%w: %d + %d > %d", ErrFull, s.used, delta, s.maxBytes)
	}
	s.seq++
	e.Seq = s.seq
	s.data[e.Key] = e
	s.used += delta
	return nil
}

// ChangesSince returns entries installed at local log position > since, in
// log order. Tombstones are included.
func (s *Store) ChangesSince(since uint64) []Entry {
	var out []Entry
	for _, e := range s.data {
		if e.Seq > since {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// applyRemote merges entries from a peer, advancing the local clock past
// everything seen (Lamport receive rule). The footprint budget is enforced;
// an oversized remote entry is dropped and reported in the skipped count.
func (s *Store) applyRemote(entries []Entry) (applied, skipped int) {
	for i := range entries {
		e := entries[i]
		if e.Clock > s.clock {
			s.clock = e.Clock
		}
		old := s.data[e.Key]
		if old != nil && !(&e).newer(old) {
			s.Conflicts++
			continue
		}
		cp := e
		cp.Value = append([]byte(nil), e.Value...)
		if err := s.install(&cp); err != nil {
			skipped++
			continue
		}
		applied++
	}
	return applied, skipped
}
