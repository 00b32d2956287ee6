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

// Entry is one versioned record, including deletion tombstones. Tentative
// entries are the unit an up-sync session ships.
type Entry struct {
	Key     string
	Value   []byte
	Deleted bool
	// Clock is the store's logical clock at the write; together with
	// Origin it is the server's idempotency token for a retried write,
	// and FinishUpSync compares it to spot a write made mid-session.
	Clock uint64
	// Origin is the replica that performed the write.
	Origin string
	// Seq is the entry's local log position, reassigned on every install;
	// BeginUpSync ships pending writes in Seq order.
	Seq uint64

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

// size is the entry's footprint charge.
func (e *Entry) size() int { return len(e.Key) + len(e.Value) + 32 }

// Store is a small-footprint embedded key-value store that syncs with
// one server. It is not safe for concurrent use; handheld applications
// are single-threaded in the simulation.
type Store struct {
	name     string
	maxBytes int
	used     int
	clock    uint64
	seq      uint64
	data     map[string]*Entry
	// invThrough is the server's invalidation stream position this store
	// has consumed through.
	invThrough uint64

	// now supplies the simulated-time write timestamp for tentative
	// writes (SetNow); nil means WTS stays zero.
	now func() int64

	// TentativePuts counts disconnected writes; SyncConflicts counts
	// server verdicts that overrode a tentative write; Invalidations
	// counts cache entries dropped by the server's invalidation stream.
	TentativePuts, SyncConflicts, Invalidations uint64
}

// New creates a store. name identifies the writer to the server (it
// breaks last-writer-wins ties). maxBytes <= 0 means unlimited.
func New(name string, maxBytes int) *Store {
	return &Store{
		name:     name,
		maxBytes: maxBytes,
		data:     make(map[string]*Entry),
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

// install writes an entry, replacing any entry for its key. The footprint
// budget is checked first: a write over it fails with ErrFull (the
// paper's small-footprint constraint is hard).
func (s *Store) install(e *Entry) error {
	old := s.data[e.Key]
	delta := e.size()
	if old != nil {
		delta -= old.size()
	}
	if s.maxBytes > 0 && s.used+delta > s.maxBytes {
		// Undoing the clock bump for a failed write is unnecessary —
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
