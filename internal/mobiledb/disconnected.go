package mobiledb

import (
	"fmt"
	"sort"
)

// Disconnected transactions: the mobile-database upgrade the paper's
// station model implies. A device keeps writing while its bearer is down —
// each write lands as a *tentative* entry carrying the server version it
// was derived from — and on reconnect uploads the pending set in a sync
// session. The server detects conflicts by comparing each write's base
// version against its current version and resolves them under a pluggable
// policy: last-writer-wins by simulated time, server-wins, or the
// deliberately fragile blind-apply baseline the syncstorm experiment uses
// for contrast. Accepted writes feed a broadcast-disk style invalidation
// stream so other devices' caches self-heal instead of serving stale
// reads forever.

// maxInvReplay caps how many invalidation ticks one sync response
// replays to a device that fell behind. Unbounded replay melts the
// downlink — every response rides a real simulated link, and a device
// thousands of ticks behind would drag the whole log into each reply.
// Missing older ticks is safe: a stale cached version is caught by the
// server's version check on the device's next conflicting write
// (mirrors the cell-side ring bound in workload.SyncFlows).
const maxInvReplay = 64

// Policy selects the server's conflict-resolution rule.
type Policy int

// Policies. PolicyFragile is the measurable-loss baseline: writes apply
// blindly with no version check, so concurrent updates silently overwrite
// each other.
const (
	PolicyLWW Policy = iota
	PolicyServerWins
	PolicyFragile
)

func (p Policy) String() string {
	switch p {
	case PolicyLWW:
		return "lww"
	case PolicyServerWins:
		return "server-wins"
	case PolicyFragile:
		return "fragile"
	default:
		return "invalid"
	}
}

// ParsePolicy resolves a policy name.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{PolicyLWW, PolicyServerWins, PolicyFragile} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("mobiledb: unknown policy %q", s)
}

// ------------------------------------------------------------------
// Device side
// ------------------------------------------------------------------

// PutTentative records a disconnected write: the value is stored locally,
// marked tentative, stamped with the simulated time and the server version
// it was based on, and queued for the next sync session.
func (s *Store) PutTentative(key string, value []byte) error {
	return s.putTentative(key, value, false)
}

// DeleteTentative records a disconnected delete the same way.
func (s *Store) DeleteTentative(key string) error {
	return s.putTentative(key, nil, true)
}

func (s *Store) putTentative(key string, value []byte, deleted bool) error {
	if key == "" {
		return ErrKeyEmpty
	}
	s.clock++
	e := &Entry{
		Key:       key,
		Deleted:   deleted,
		Clock:     s.clock,
		Origin:    s.name,
		Tentative: true,
		WTS:       s.nowTS(),
	}
	if !deleted {
		e.Value = append([]byte(nil), value...)
	}
	if old := s.data[key]; old != nil {
		if old.Tentative {
			e.Base = old.Base // chain keeps the original base version
		} else {
			e.Base = old.SrvVer
		}
	}
	if err := s.install(e); err != nil {
		return err
	}
	s.TentativePuts++
	return nil
}

// TentativeCount returns the number of pending tentative entries.
func (s *Store) TentativeCount() int {
	n := 0
	for _, e := range s.data {
		if e.Tentative {
			n++
		}
	}
	return n
}

// UpSyncRequest is a device's reconnect upload: its pending tentative
// writes plus the invalidation watermark it has consumed through.
type UpSyncRequest struct {
	From string
	// Session is an opaque client correlation token, echoed in the
	// response so a device can discard verdicts for sessions it already
	// abandoned. The server does not interpret it.
	Session uint64
	Since   uint64 // invalidation stream position consumed
	Writes  []Entry
}

// WireBytes is the request's simulated wire size: a 32-byte header plus
// the sender name, and 48 bytes of framing plus key and value per write.
func (r *UpSyncRequest) WireBytes() int {
	n := 32 + len(r.From)
	for i := range r.Writes {
		w := &r.Writes[i]
		n += 48 + len(w.Key) + len(w.Value)
	}
	return n
}

// WriteResult is the server's verdict on one uploaded write.
type WriteResult struct {
	Key string
	// Clock echoes the write's device clock so retried sessions match
	// verdicts to the exact write they answered.
	Clock uint64
	// Accepted means the device's value now stands.
	Accepted bool
	// Conflict means the base version had moved: some other writer got
	// there first and the policy had to choose.
	Conflict bool
	// SrvVer, Value, Deleted, WTS, Origin describe the authoritative
	// row after resolution; the device installs them verbatim.
	SrvVer  uint64
	Value   []byte
	Deleted bool
	WTS     int64
	Origin  string
}

// Invalidation is one broadcast-disk tick: key moved to SrvVer, cached
// copies below that are stale.
type Invalidation struct {
	Key    string
	SrvVer uint64
}

// InvalidationMsg is a batch of invalidation ticks pushed over the
// broadcast disk to subscribed cells, advancing their watermark to
// Through. It lives here (not in the host layer) so both ends of the
// stream share one concrete type for UDP body assertions.
type InvalidationMsg struct {
	Invalid []Invalidation
	Through uint64
}

// UpSyncResponse answers an UpSyncRequest.
type UpSyncResponse struct {
	From string
	// Session echoes the request's correlation token.
	Session uint64
	Results []WriteResult
	// Invalid replays the invalidation stream after request.Since;
	// Through is the new watermark.
	Invalid []Invalidation
	Through uint64
	// Retry means the addressee is not the primary; RedirectRank hints
	// where to go (-1 unknown). The device re-sends after rotating.
	Retry        bool
	RedirectRank int
}

// WireBytes is the response's simulated wire size: a 32-byte header plus
// the sender name, 48 bytes of framing plus key and value per result, and
// 20 bytes per invalidation.
func (r *UpSyncResponse) WireBytes() int {
	n := 32 + len(r.From)
	for i := range r.Results {
		res := &r.Results[i]
		n += 48 + len(res.Key) + len(res.Value)
	}
	n += 20 * len(r.Invalid)
	return n
}

// BeginUpSync opens a sync session: it snapshots every pending tentative
// write, oldest first (Seq order). The writes stay tentative until
// FinishUpSync installs the verdicts or DropTentative discards them; a
// timed-out session simply leaves them queued for the next attempt. The
// caller keeps at most one session in flight.
func (s *Store) BeginUpSync() *UpSyncRequest {
	var writes []Entry
	for _, e := range s.data {
		if e.Tentative {
			writes = append(writes, *e)
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].Seq < writes[j].Seq })
	// The request crosses the network and may outlive local state. It
	// shares the entries' values, which is safe because the store never
	// writes into a stored value: every write installs a fresh copy.
	return &UpSyncRequest{From: s.name, Since: s.invThrough, Writes: writes}
}

// DropTentative is the fragile baseline's failure handling: pending
// tentative writes from the session are discarded outright. Returns how
// many writes were lost.
func (s *Store) DropTentative(req *UpSyncRequest) int {
	lost := 0
	for _, w := range req.Writes {
		e := s.data[w.Key]
		if e == nil || !e.Tentative {
			continue
		}
		s.drop(e)
		lost++
	}
	return lost
}

// FinishUpSync applies the server's verdicts and invalidations and
// advances the invalidation watermark. A tentative entry written again
// after the session snapshot (device clock moved past the uploaded write)
// stays tentative on its new base; otherwise the authoritative row
// replaces it. Returns the number of confirmed writes and the number
// resolved against the device.
func (s *Store) FinishUpSync(resp *UpSyncResponse) (confirmed, overridden int) {
	for i := range resp.Results {
		r := &resp.Results[i]
		e := s.data[r.Key]
		if e != nil && e.Tentative && e.Clock > r.Clock {
			// Rewritten mid-flight: keep the newer tentative write but
			// rebase it on the version the server just produced.
			e.Base = r.SrvVer
			continue
		}
		s.installServer(r.Key, r.SrvVer, r.Value, r.Deleted, r.WTS, r.Origin)
		if r.Accepted {
			confirmed++
		} else {
			overridden++
			s.SyncConflicts++
		}
	}
	s.ApplyInvalidations(resp.Invalid)
	s.invThrough = resp.Through
	return confirmed, overridden
}

// installServer replaces local state for key with the authoritative row.
// Budget overflow falls back to dropping the local copy entirely, the
// resolved tentative write included — the server holds the data; the
// cache just stays cold.
func (s *Store) installServer(key string, ver uint64, value []byte, deleted bool, wts int64, origin string) {
	if deleted {
		if e := s.data[key]; e != nil {
			s.drop(e)
		}
		return
	}
	s.clock++
	e := &Entry{
		Key:    key,
		Value:  append([]byte(nil), value...),
		Clock:  s.clock,
		Origin: origin,
		SrvVer: ver,
		WTS:    wts,
	}
	if err := s.install(e); err != nil {
		if old := s.data[key]; old != nil {
			s.drop(old)
		}
	}
}

// drop removes e from the store.
func (s *Store) drop(e *Entry) {
	delete(s.data, e.Key)
	s.used -= e.size()
}

// ApplyInvalidations consumes a broadcast-disk tick: cached entries older
// than the announced version are dropped (the next read misses and
// refetches). Tentative entries survive — their conflict is resolved by
// the next sync session, not the broadcast.
func (s *Store) ApplyInvalidations(invs []Invalidation) (dropped int) {
	for _, inv := range invs {
		if s.invalidate(s.data[inv.Key], inv.SrvVer) {
			dropped++
		}
	}
	return dropped
}

// ApplyInvalidationIndex applies a window of ticks summarized per key:
// newest reports the highest version any tick in the window carries for
// key (ok false when none names it). It drops exactly what
// ApplyInvalidations over that window drops, since a cached entry falls
// to some tick of the window exactly when it falls to the highest one,
// but it costs one lookup per local entry instead of one per tick.
func (s *Store) ApplyInvalidationIndex(newest func(key string) (ver uint64, ok bool)) (dropped int) {
	for key, e := range s.data {
		if ver, ok := newest(key); ok && s.invalidate(e, ver) {
			dropped++
		}
	}
	return dropped
}

// invalidate drops e, a local entry, when it is a cached (non-tentative)
// copy older than server version ver.
func (s *Store) invalidate(e *Entry, ver uint64) bool {
	if e == nil || e.Tentative || e.SrvVer >= ver {
		return false
	}
	s.drop(e)
	s.Invalidations++
	return true
}

// ------------------------------------------------------------------
// Server side
// ------------------------------------------------------------------

// ServerEntry is the authoritative row a backend stores per key.
type ServerEntry struct {
	Key     string
	Value   []byte
	Deleted bool
	// Ver increments on every accepted write; devices base against it.
	Ver uint64
	// WTS and Origin are the accepted write's timestamp and writer, used
	// by last-writer-wins and as the (Origin, Clock) idempotency token.
	WTS    int64
	Origin string
	Clock  uint64
}

// Backend is the storage a Server resolves against — in production wiring,
// a table in the replicated host database, so accepted writes ride the
// WAL to the replicas.
type Backend interface {
	// Lookup returns the row for key; ok false when absent.
	Lookup(key string) (e ServerEntry, ok bool, err error)
	// Store upserts the row (Ver already advanced by the caller).
	Store(e ServerEntry) error
}

// Server is the host-side disconnected-transaction engine: it applies
// uploaded writes against the backend under the configured policy and
// feeds the invalidation log.
type Server struct {
	policy Policy
	be     Backend

	// invLog is the broadcast-disk source: every accepted write appends
	// one tick. Watermarks index records, 1-based.
	invLog []Invalidation

	// Counters (core.NewSyncService registers them under mobiledb.sync.*).
	Sessions, Writes, Accepted, Rejected uint64
	ConflictsSeen, Duplicates            uint64
	// BlindOverwrites counts fragile-policy writes that clobbered a value
	// their writer never saw — each one is a silently lost update, the
	// quantity the syncstorm baseline measures. Always zero under the
	// resilient policies.
	BlindOverwrites uint64
}

// NewServer builds a server engine that resolves writes against be.
func NewServer(policy Policy, be Backend) *Server {
	return &Server{policy: policy, be: be}
}

// Reset drops the server's volatile state — the invalidation log and its
// watermark — modelling a host crash. Backend rows (and with them the
// idempotency tokens) are durable and survive. Counters are cumulative
// across incarnations.
func (sv *Server) Reset() { sv.invLog = nil }

// InvThrough returns the invalidation log's current watermark.
func (sv *Server) InvThrough() uint64 { return uint64(len(sv.invLog)) }

// InvSince returns invalidation ticks after the given watermark. The
// result shares the log's array, capped at its length: the log is
// append-only and Reset replaces the array rather than rewriting it, so
// the ticks handed out never change and an append to the result copies.
func (sv *Server) InvSince(since uint64) []Invalidation {
	n := uint64(len(sv.invLog))
	if since >= n {
		return nil
	}
	return sv.invLog[since:n:n]
}

// Apply processes one upload session and builds the response. The caller
// owns transport concerns (primary check, redirect, commit-gated acks).
func (sv *Server) Apply(req *UpSyncRequest) (*UpSyncResponse, error) {
	sv.Sessions++
	resp := &UpSyncResponse{Session: req.Session, RedirectRank: -1}
	for i := range req.Writes {
		w := &req.Writes[i]
		r, err := sv.applyWrite(w)
		if err != nil {
			return nil, err
		}
		resp.Results = append(resp.Results, r)
	}
	// Replay the invalidation stream since the device's watermark, but
	// capped: a device that fell far behind gets only the newest ticks —
	// replaying thousands of entries into every response melts the
	// downlink (each response rides a real simulated link), and a missed
	// tick is safe anyway: stale cached versions are caught by the
	// version check on the device's next conflicting write.
	delta := sv.InvSince(req.Since)
	if len(delta) > maxInvReplay {
		delta = delta[len(delta)-maxInvReplay:]
	}
	resp.Invalid = delta
	resp.Through = sv.InvThrough()
	return resp, nil
}

// applyWrite resolves one uploaded write against the backend.
func (sv *Server) applyWrite(w *Entry) (WriteResult, error) {
	sv.Writes++
	cur, exists, err := sv.be.Lookup(w.Key)
	if err != nil {
		return WriteResult{}, err
	}
	if exists && cur.Origin == w.Origin && cur.Clock == w.Clock {
		// Idempotent retry: this exact write already stands (the ack was
		// lost, or a failover replayed the session). Re-acknowledge.
		sv.Duplicates++
		sv.Accepted++
		return verdict(w, cur, true, false), nil
	}
	if sv.policy == PolicyFragile && exists && cur.Ver > w.Base {
		sv.BlindOverwrites++
	}
	conflict := exists && cur.Ver > w.Base && sv.policy != PolicyFragile
	accept := true
	if conflict {
		sv.ConflictsSeen++
		switch sv.policy {
		case PolicyServerWins:
			accept = false
		case PolicyLWW:
			accept = w.WTS > cur.WTS || (w.WTS == cur.WTS && w.Origin > cur.Origin)
		}
	}
	if !accept {
		sv.Rejected++
		return verdict(w, cur, false, true), nil
	}
	next := ServerEntry{
		Key: w.Key, Value: w.Value, Deleted: w.Deleted,
		Ver: cur.Ver + 1, WTS: w.WTS, Origin: w.Origin, Clock: w.Clock,
	}
	if err := sv.be.Store(next); err != nil {
		return WriteResult{}, err
	}
	sv.invLog = append(sv.invLog, Invalidation{Key: next.Key, SrvVer: next.Ver})
	sv.Accepted++
	return verdict(w, next, true, conflict), nil
}

// verdict builds the WriteResult describing the authoritative row e.
func verdict(w *Entry, e ServerEntry, accepted, conflict bool) WriteResult {
	return WriteResult{
		Key: w.Key, Clock: w.Clock, Accepted: accepted, Conflict: conflict,
		SrvVer: e.Ver, Value: e.Value, Deleted: e.Deleted, WTS: e.WTS, Origin: e.Origin,
	}
}

// MemBackend is a map-backed Backend for servers without a host database
// behind them: the inventory hub and ablation A4's hub.
type MemBackend struct {
	rows map[string]ServerEntry
}

// NewMemBackend creates an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{rows: make(map[string]ServerEntry)} }

// Lookup implements Backend.
func (b *MemBackend) Lookup(key string) (ServerEntry, bool, error) {
	e, ok := b.rows[key]
	return e, ok, nil
}

// Store implements Backend.
func (b *MemBackend) Store(e ServerEntry) error {
	e.Value = append([]byte(nil), e.Value...)
	b.rows[e.Key] = e
	return nil
}
