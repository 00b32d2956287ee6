// Package repl is the host data tier's replication layer: a deterministic
// log-shipping protocol that streams the embedded database's WAL from a
// primary to N replicas over simnet links, so replication traffic is
// delayed, dropped, partitioned and traced like every other byte in the
// simulation. The paper's §7 host component puts the database servers
// behind the middleware; this package is what makes that tier survive the
// fault plans of PR 4 instead of being a single point of truth.
//
// The protocol is Raft-shaped: per-record terms, quorum acknowledgements,
// (lastTerm, lastIndex) vote comparison and truncate-on-conflict give the
// standard leader-completeness guarantee, while elections are driven by
// simulated-time leases with rank-staggered timeouts so failover is a
// deterministic function of the seed. Durability is modelled honestly:
// every member writes its WAL through database.PersistTo, as binary
// length-prefixed, checksummed records, into an in-memory "disk" with a
// simulated fsync latency, acknowledges records only after the fsync
// completes, and a crash tears the un-synced tail at a random byte —
// exercising database.ReadWALPrefix's torn-tail recovery on every restart.
// Recovery replays the log and never rewrites it: a restart or a conflict
// truncation cuts the disk image back to a record boundary, and the WAL
// writer stays attached to append after it.
// Shipped records are applied without copying their rows: committed rows
// are immutable, so every member's table shares them read-only. Only
// never-acknowledged records can be lost, which is exactly the window the
// quorum intersection argument tolerates.
package repl

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"mcommerce/internal/database"
	"mcommerce/internal/metrics"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
)

// Port is the well-known UDP port replication members listen on.
const Port simnet.Port = 740

// Config parameterizes one member of a replica group.
type Config struct {
	// Rank is this member's index in Members; rank 0 bootstraps as the
	// initial primary (term 1) so cold start needs no election.
	Rank int
	// Members lists every member's address in rank order, identical on
	// all members.
	Members []simnet.Addr
}

// Replication timing and batching.
const (
	// heartbeat is the primary's ship/keepalive interval.
	heartbeat = 100 * time.Millisecond
	// lease is the base follower lease: a follower that hears nothing
	// from a primary for lease + Rank*stagger becomes a candidate. The
	// rank stagger makes concurrent expirations — and therefore the
	// failover winner — deterministic.
	lease = 400 * time.Millisecond
	// stagger is the per-rank lease spread.
	stagger = 50 * time.Millisecond
	// syncDelay is the simulated fsync latency: a record is acknowledged
	// (and counts toward quorum) only syncDelay after it was written.
	syncDelay = 2 * time.Millisecond
	// batchMax bounds records per ship message.
	batchMax = 64
)

// Member roles.
const (
	roleFollower = iota
	roleCandidate
	roleLeader
)

// shipMsg carries a batch of WAL records (possibly empty: a heartbeat)
// from the primary. Terms holds each record's original append term;
// PrevTerm is the term of the record just before the batch, for the Raft
// log-matching check. Bodies are immutable once sent.
type shipMsg struct {
	Term, From int
	PrevIdx    int
	PrevTerm   int
	Commit     int
	Terms      []int
	Recs       []database.LogRecord
}

// ackMsg reports a follower's durable log length. Matched false means the
// log-matching check failed (or a gap): the primary rewinds to Applied.
type ackMsg struct {
	Term, From int
	Applied    int
	Matched    bool
}

// voteReq solicits a vote for From in Term; LastTerm/LastIdx describe the
// candidate's durable log for the up-to-date comparison.
type voteReq struct {
	Term, From        int
	LastIdx, LastTerm int
}

// voteResp answers a voteReq.
type voteResp struct {
	Term, From int
	Granted    bool
}

// Member is one node of a replica group. All methods run on the owning
// shard's scheduler lane; none are safe for concurrent use.
type Member struct {
	name string
	node *simnet.Node
	u    *simnet.UDP
	db   *database.DB
	cfg  Config

	// Durable state: survives Crash/Restart (modelled as a metadata
	// write that is atomic with the record append).
	term     int
	votedFor int
	termlog  []int // per-record append terms, parallel to the WAL
	disk     walDisk

	// Volatile state: wiped by Crash, rebuilt by Restart.
	alive       bool
	role        int
	leader      int // last known primary rank, -1 unknown
	commit      int
	matchIdx    int // prefix verified to match the current leader's log
	votes       uint64
	next, acked []int // leader bookkeeping per member
	applyTerm   int   // term for records being applied from a ship
	// Fsyncs group-commit, counted in records: one in-flight fsync covers
	// every record written before it was armed, and writes landing while
	// it runs ride the next one, so durability throughput does not
	// collapse to one record per syncDelay under a write storm.
	syncedRecs int
	syncArmed  int // target of the in-flight fsync
	syncNewest int // newest write; target of the next fsync
	syncT      simnet.Timer
	leaseT     simnet.Timer
	hbT        simnet.Timer
	shipQueued bool
	shipCtx    []trace.Context
	commitCbs  []func(commit int)
	leaderCbs  []func(leader int)

	// Counters, aliased as core.db.repl.<name>.*.
	Ships, ShippedRecs, Acks, Nacks   uint64
	Elections, Takeovers, Truncations uint64
	AppliedRecs, Heartbeats, Restarts uint64
	TornBytes                         uint64
}

// walDisk is the member's simulated disk: a flat byte image the WAL
// writer appends one record to per Write, and the image length after each
// record, so recovery cuts the image at a record boundary.
type walDisk struct {
	buf  []byte
	ends []int // ends[i] is len(buf) through record i
}

func (d *walDisk) Write(p []byte) (int, error) {
	d.buf = append(d.buf, p...)
	d.ends = append(d.ends, len(d.buf))
	return len(p), nil
}

// size returns the image length through the first n records.
func (d *walDisk) size(n int) int {
	if n == 0 {
		return 0
	}
	return d.ends[n-1]
}

// New creates a member on nd. The database starts empty: rank 0 becomes
// the bootstrap primary, and all schema (CreateTable) and data applied to
// its DB replicate to the others as WAL records. name scopes metrics under
// core.db.repl.<name>.
func New(nd *simnet.Node, name string, cfg Config) (*Member, error) {
	if cfg.Rank < 0 || cfg.Rank >= len(cfg.Members) {
		return nil, fmt.Errorf("repl: rank %d outside member list of %d", cfg.Rank, len(cfg.Members))
	}
	if len(cfg.Members) > 64 {
		return nil, errors.New("repl: at most 64 members")
	}
	m := &Member{
		name: name, node: nd, u: simnet.UDPOf(nd), db: database.New(), cfg: cfg,
		votedFor: -1, leader: -1,
		next: make([]int, len(cfg.Members)), acked: make([]int, len(cfg.Members)),
		shipCtx: make([]trace.Context, len(cfg.Members)),
	}
	if _, err := m.db.PersistTo(&m.disk); err != nil {
		return nil, err
	}
	m.db.OnCommit(m.noteAppend)
	if err := m.u.Listen(Port, m.recv); err != nil {
		return nil, err
	}
	sc := nd.Network().Metrics.Instance("core.db.repl." + metrics.Sanitize(name))
	sc.AliasCounter("ships", &m.Ships)
	sc.AliasCounter("shipped_records", &m.ShippedRecs)
	sc.AliasCounter("acks", &m.Acks)
	sc.AliasCounter("nacks", &m.Nacks)
	sc.AliasCounter("elections", &m.Elections)
	sc.AliasCounter("takeovers", &m.Takeovers)
	sc.AliasCounter("truncations", &m.Truncations)
	sc.AliasCounter("applied_records", &m.AppliedRecs)
	sc.AliasCounter("heartbeats", &m.Heartbeats)
	sc.AliasCounter("restarts", &m.Restarts)
	sc.AliasCounter("torn_bytes", &m.TornBytes)
	sc.GaugeFunc("term", func() int64 { return int64(m.term) })
	sc.GaugeFunc("commit", func() int64 { return int64(m.commit) })
	sc.GaugeFunc("wal_len", func() int64 { return int64(m.db.WALLen()) })
	sc.GaugeFunc("role", func() int64 { return int64(m.role) })
	m.alive = true
	if cfg.Rank == 0 && len(cfg.Members) > 0 {
		m.term = 1
		m.becomeLeader()
	} else {
		m.resetLease()
	}
	return m, nil
}

// DB exposes the member's database. Only the primary's accepts writes
// meaningfully; replicas' are read-only projections.
func (m *Member) DB() *database.DB { return m.db }

// Node returns the hosting simnet node.
func (m *Member) Node() *simnet.Node { return m.node }

// Name returns the member's metrics name.
func (m *Member) Name() string { return m.name }

// IsLeader reports whether this member believes it is the primary.
func (m *Member) IsLeader() bool { return m.alive && m.role == roleLeader }

// Leader returns the last known primary rank, -1 if unknown.
func (m *Member) Leader() int { return m.leader }

// Term returns the current term.
func (m *Member) Term() int { return m.term }

// Commit returns the quorum-durable record count.
func (m *Member) Commit() int { return m.commit }

// Alive reports whether the member is running (not crashed).
func (m *Member) Alive() bool { return m.alive }

// Dump renders the member's database state canonically (see database.Dump).
func (m *Member) Dump() string { return m.db.Dump() }

// OnCommitAdvance registers fn, called whenever the member's commit index
// advances. The data-tier sync service uses this on the primary to release
// device acknowledgements only once their transactions are quorum-durable.
func (m *Member) OnCommitAdvance(fn func(commit int)) {
	m.commitCbs = append(m.commitCbs, fn)
}

// OnLeaderChange registers fn, called when the member's view of the
// primary changes (rank, -1 when unknown).
func (m *Member) OnLeaderChange(fn func(leader int)) {
	m.leaderCbs = append(m.leaderCbs, fn)
}

func (m *Member) quorum() int { return len(m.cfg.Members)/2 + 1 }

func (m *Member) sched() *simnet.Scheduler { return m.node.Sched() }

// noteAppend is the database commit hook: it runs with db.mu held for
// every WAL append (local commits on the primary, ApplyRecord on
// replicas), so it only records bookkeeping and defers real work. A dead
// member's image is torn, so an append there is a wiring bug.
func (m *Member) noteAppend(rec database.LogRecord, walLen int) {
	if !m.alive {
		panic("repl: commit on crashed member " + m.name)
	}
	t := m.applyTerm
	if t == 0 {
		t = m.term
	}
	m.termlog = append(m.termlog[:walLen-1], t)
	m.syncNewest = walLen
	if !m.syncT.Pending() {
		m.syncArmed = m.syncNewest
		m.syncT = m.sched().AfterCall(syncDelay, memberSyncDone, m)
	}
	if m.role == roleLeader && !m.shipQueued {
		m.shipQueued = true
		m.sched().AfterCall(0, memberShip, m)
	}
}

func memberSyncDone(a any) { a.(*Member).syncDone() }
func memberShip(a any)     { a.(*Member).shipAll() }
func memberLease(a any)    { a.(*Member).leaseExpired() }
func memberHb(a any)       { a.(*Member).heartbeat() }

// syncDone completes the in-flight fsync: the disk is now durable through
// the armed mark (every record written before the fsync started — group
// commit), which is what quorum counting and acks report. Records that
// landed while it ran arm the next one.
func (m *Member) syncDone() {
	if !m.alive || m.syncArmed <= m.syncedRecs {
		return
	}
	m.syncedRecs = m.syncArmed
	if m.syncNewest > m.syncedRecs {
		m.syncArmed = m.syncNewest
		m.syncT = m.sched().AfterCall(syncDelay, memberSyncDone, m)
	}
	if m.role == roleLeader {
		m.recomputeCommit()
		return
	}
	if m.leader >= 0 {
		m.sendAck(m.leader, ackMsg{Term: m.term, From: m.cfg.Rank, Applied: m.ackIdx(), Matched: true})
	}
}

// ackIdx is the length a follower may safely acknowledge: its durable
// prefix, bounded by the prefix verified (via ship log-matching checks) to
// agree with the current leader's log. A follower can hold synced records
// a new leader never saw — an old primary that kept writing through a
// partition, or a replica whose acks were lost before a failover — and
// acking that tail unbounded would count divergent entries toward quorum
// and walk the leader's next[]/acked[] past its own WAL.
func (m *Member) ackIdx() int { return min(m.syncedRecs, m.matchIdx) }

// resetLease (re)arms the follower lease timer.
func (m *Member) resetLease() {
	m.leaseT.Cancel()
	d := lease + time.Duration(m.cfg.Rank)*stagger
	m.leaseT = m.sched().AfterCall(d, memberLease, m)
}

// lastDurable returns the durable log's (term, index) for vote comparison.
func (m *Member) lastDurable() (term, idx int) {
	if m.syncedRecs > 0 {
		term = m.termlog[m.syncedRecs-1]
	}
	return term, m.syncedRecs
}

// leaseExpired starts (or retries) an election.
func (m *Member) leaseExpired() {
	if !m.alive || m.role == roleLeader {
		return
	}
	m.role = roleCandidate
	m.term++
	m.votedFor = m.cfg.Rank
	m.votes = 1 << m.cfg.Rank
	m.setLeader(-1)
	m.Elections++
	lastTerm, lastIdx := m.lastDurable()
	for r := range m.cfg.Members {
		if r == m.cfg.Rank {
			continue
		}
		m.u.Send(Port, m.cfg.Members[r], &voteReq{
			Term: m.term, From: m.cfg.Rank, LastIdx: lastIdx, LastTerm: lastTerm,
		}, 32)
	}
	m.resetLease() // retry with a fresh term if this round stalls
	if bits.OnesCount64(m.votes) >= m.quorum() {
		m.becomeLeader() // single-member group
	}
}

// becomeLeader installs leader state and appends the term barrier no-op:
// the commit index may only advance once a record of the current term is
// quorum-durable, and the barrier provides one immediately.
func (m *Member) becomeLeader() {
	m.role = roleLeader
	m.setLeader(m.cfg.Rank)
	m.Takeovers++
	m.leaseT.Cancel()
	wl := m.db.WALLen()
	for r := range m.next {
		m.next[r] = wl
		m.acked[r] = 0
	}
	m.applyTerm = m.term
	if err := m.db.ApplyRecord(database.LogRecord{}); err != nil {
		panic("repl: barrier append: " + err.Error())
	}
	m.applyTerm = 0
	m.heartbeat()
}

// heartbeat ships to every follower (a batch if it is behind, an empty
// keepalive otherwise) and rearms itself.
func (m *Member) heartbeat() {
	if !m.alive || m.role != roleLeader {
		return
	}
	m.Heartbeats++
	for r := range m.cfg.Members {
		if r == m.cfg.Rank {
			continue
		}
		// Rewind to the acknowledged position: anything shipped but not
		// acked by the previous beat is retransmitted (followers skip
		// records they already hold, so duplicates are harmless).
		if m.acked[r] < m.next[r] {
			m.next[r] = m.acked[r]
		}
		m.shipTo(r, true)
	}
	m.hbT.Cancel()
	m.hbT = m.sched().AfterCall(heartbeat, memberHb, m)
}

// shipAll pushes pending records to every behind follower (commit-hook
// triggered, so new transactions replicate immediately, not at the next
// heartbeat).
func (m *Member) shipAll() {
	m.shipQueued = false
	if !m.alive || m.role != roleLeader {
		return
	}
	for r := range m.cfg.Members {
		if r != m.cfg.Rank {
			m.shipTo(r, false)
		}
	}
}

// shipTo sends one batch (or keepalive) to follower r under a db.repl.ship
// span, so replication hops show up on transaction traces like any other layer.
func (m *Member) shipTo(r int, allowEmpty bool) {
	wl := m.db.WALLen()
	start := m.next[r]
	end := min(start+batchMax, wl)
	if end <= start && !allowEmpty {
		return
	}
	var recs []database.LogRecord
	var terms []int
	if end > start {
		recs = m.db.WALRange(start, end)
		terms = append([]int(nil), m.termlog[start:end]...)
	}
	prevTerm := 0
	if start > 0 {
		prevTerm = m.termlog[start-1]
	}
	msg := &shipMsg{
		Term: m.term, From: m.cfg.Rank, PrevIdx: start, PrevTerm: prevTerm,
		Commit: m.commit, Terms: terms, Recs: recs,
	}
	tracer := m.node.Network().Tracer
	if len(recs) > 0 {
		if m.shipCtx[r].Sampled() {
			tracer.Finish(m.shipCtx[r])
		}
		m.shipCtx[r] = tracer.StartTrace("db.repl.ship", trace.LayerHost)
		prev := tracer.Swap(m.shipCtx[r])
		m.u.Send(Port, m.cfg.Members[r], msg, shipBytes(msg))
		tracer.Swap(prev)
		m.ShippedRecs += uint64(len(recs))
	} else {
		m.u.Send(Port, m.cfg.Members[r], msg, shipBytes(msg))
	}
	m.Ships++
	m.next[r] = end
}

// recomputeCommit advances the commit index to the largest quorum-durable
// length whose record was appended in the current term (the Raft commit
// rule; older-term records commit transitively through the barrier).
func (m *Member) recomputeCommit() {
	lens := make([]int, 0, len(m.cfg.Members))
	for r := range m.cfg.Members {
		if r == m.cfg.Rank {
			lens = append(lens, m.syncedRecs)
		} else {
			lens = append(lens, m.acked[r])
		}
	}
	// kth largest: sort descending by simple insertion (member counts are
	// tiny), take index quorum-1.
	for i := 1; i < len(lens); i++ {
		for j := i; j > 0 && lens[j] > lens[j-1]; j-- {
			lens[j], lens[j-1] = lens[j-1], lens[j]
		}
	}
	kth := lens[m.quorum()-1]
	for n := kth; n > m.commit; n-- {
		if m.termlog[n-1] == m.term {
			m.setCommit(n)
			break
		}
	}
}

func (m *Member) setCommit(c int) {
	m.commit = c
	for _, fn := range m.commitCbs {
		fn(c)
	}
}

func (m *Member) setLeader(l int) {
	if l == m.leader {
		return
	}
	// A different leader means a different log to match against: drop the
	// verified prefix back to the commit index (committed entries are
	// quorum-durable, so every electable leader's log contains them).
	m.matchIdx = m.commit
	m.leader = l
	for _, fn := range m.leaderCbs {
		fn(l)
	}
}

// stepDown returns to follower state in the given (newer) term.
func (m *Member) stepDown(term int) {
	if term > m.term {
		m.term = term
		m.votedFor = -1
	}
	// A term change can reseat the same rank as leader over a rebuilt log,
	// so the verified prefix resets even when the leader rank is unchanged.
	m.matchIdx = m.commit
	wasLeader := m.role == roleLeader
	m.role = roleFollower
	m.votes = 0
	if wasLeader {
		m.hbT.Cancel()
		tracer := m.node.Network().Tracer
		for r, c := range m.shipCtx {
			if c.Sampled() {
				tracer.Finish(c)
				m.shipCtx[r] = trace.Context{}
			}
		}
		// A deposed primary no longer knows who leads — and observers
		// (the sync service) must see the demotion: its held device acks
		// gate on WAL positions an interregnum may truncate and rebuild.
		m.setLeader(-1)
	}
	m.resetLease()
}

// recv dispatches replication datagrams.
func (m *Member) recv(_ simnet.Port, from simnet.Addr, body any, bytes int) {
	if !m.alive {
		return
	}
	switch msg := body.(type) {
	case *shipMsg:
		m.onShip(msg)
	case *ackMsg:
		m.onAck(msg)
	case *voteReq:
		m.onVoteReq(msg)
	case *voteResp:
		m.onVoteResp(msg)
	}
}

func (m *Member) sendAck(to int, ack ackMsg) {
	if !ack.Matched {
		m.Nacks++
	} else {
		m.Acks++
	}
	m.u.Send(Port, m.cfg.Members[to], &ack, 32)
}

// onShip handles a batch from the primary: log-matching check, conflict
// truncation, sequential apply, commit advance. Acks for appended records
// are deferred to fsync completion; everything else acks immediately.
func (m *Member) onShip(msg *shipMsg) {
	if msg.Term < m.term {
		m.sendAck(msg.From, ackMsg{Term: m.term, From: m.cfg.Rank, Applied: m.syncedRecs, Matched: false})
		return
	}
	if msg.Term > m.term || m.role != roleFollower {
		m.stepDown(msg.Term)
	}
	m.setLeader(msg.From)
	m.resetLease()
	wl := m.db.WALLen()
	if msg.PrevIdx > wl {
		// Gap: the primary is ahead of us; rewind it to our length.
		m.sendAck(msg.From, ackMsg{Term: m.term, From: m.cfg.Rank, Applied: wl, Matched: false})
		return
	}
	if msg.PrevIdx > 0 && m.termlog[msg.PrevIdx-1] != msg.PrevTerm {
		// Conflicting prefix: drop our tail from the conflict point (the
		// commit index is quorum-durable and never conflicts).
		cut := max(msg.PrevIdx-1, m.commit)
		m.truncateTo(cut)
		m.sendAck(msg.From, ackMsg{Term: m.term, From: m.cfg.Rank, Applied: cut, Matched: false})
		return
	}
	appended := false
	for i, rec := range msg.Recs {
		idx := msg.PrevIdx + i
		if idx < m.db.WALLen() {
			if m.termlog[idx] == msg.Terms[i] {
				continue // already have it
			}
			if idx < m.commit {
				// Committed records never conflict (quorum intersection);
				// a conflict below the commit index is a protocol bug.
				panic("repl: conflict below commit index")
			}
			m.truncateTo(idx)
		}
		m.applyTerm = msg.Terms[i]
		err := m.db.ApplyRecord(rec)
		m.applyTerm = 0
		if err != nil {
			panic("repl: apply shipped record: " + err.Error())
		}
		m.AppliedRecs++
		appended = true
	}
	// The log-matching check held and the batch's records are in place, so
	// the prefix through the batch end is verified against this leader.
	// Anything beyond it stays unverified until a later ship covers it.
	m.matchIdx = max(m.matchIdx, msg.PrevIdx+len(msg.Recs))
	// Advance commit only over the verified prefix (Raft's "index of last
	// new entry" bound): an unverified tail must never be marked committed,
	// or a later truncation would hit the conflict-below-commit panic.
	if c := min(msg.Commit, m.matchIdx); c > m.commit {
		m.setCommit(c)
	}
	if !appended {
		m.sendAck(msg.From, ackMsg{Term: m.term, From: m.cfg.Rank, Applied: m.ackIdx(), Matched: true})
	}
}

// onAck updates leader bookkeeping from a follower's durable length.
func (m *Member) onAck(msg *ackMsg) {
	if msg.Term > m.term {
		m.stepDown(msg.Term)
		return
	}
	if m.role != roleLeader || msg.Term != m.term {
		return
	}
	f := msg.From
	// Never let a follower's report walk our bookkeeping past our own log:
	// acked[]/next[] index termlog, and recomputeCommit treats them as
	// lengths of replicas of *this* log.
	if wl := m.db.WALLen(); msg.Applied > wl {
		msg.Applied = wl
	}
	if m.shipCtx[f].Sampled() {
		m.node.Network().Tracer.Finish(m.shipCtx[f])
		m.shipCtx[f] = trace.Context{}
	}
	if msg.Matched {
		if msg.Applied < m.acked[f] {
			// The follower restarted and lost tail records; re-ship.
			m.next[f] = msg.Applied
		}
		m.acked[f] = msg.Applied
		if m.next[f] < msg.Applied {
			m.next[f] = msg.Applied
		}
	} else {
		m.next[f] = msg.Applied
		if m.acked[f] > msg.Applied {
			m.acked[f] = msg.Applied
		}
	}
	m.recomputeCommit()
	if m.next[f] < m.db.WALLen() {
		m.shipTo(f, false)
	}
}

func (m *Member) onVoteReq(msg *voteReq) {
	if msg.Term > m.term {
		m.stepDown(msg.Term)
	}
	granted := false
	if msg.Term == m.term && (m.votedFor == -1 || m.votedFor == msg.From) {
		lastTerm, lastIdx := m.lastDurable()
		if msg.LastTerm > lastTerm || (msg.LastTerm == lastTerm && msg.LastIdx >= lastIdx) {
			granted = true
			m.votedFor = msg.From
			if m.role != roleLeader {
				m.resetLease()
			}
		}
	}
	m.u.Send(Port, m.cfg.Members[msg.From], &voteResp{Term: m.term, From: m.cfg.Rank, Granted: granted}, 32)
}

func (m *Member) onVoteResp(msg *voteResp) {
	if msg.Term > m.term {
		m.stepDown(msg.Term)
		return
	}
	if m.role != roleCandidate || msg.Term != m.term || !msg.Granted {
		return
	}
	m.votes |= 1 << msg.From
	if bits.OnesCount64(m.votes) >= m.quorum() {
		m.becomeLeader()
	}
}

// truncateTo discards log records from index n on: the database rebuilds
// in place from the surviving prefix and the disk image is cut to match.
func (m *Member) truncateTo(n int) {
	if err := m.db.ResetTo(m.db.WALRange(0, n)); err != nil {
		panic("repl: truncate: " + err.Error())
	}
	m.termlog = m.termlog[:n]
	m.matchIdx = min(m.matchIdx, n)
	m.cutDisk(n)
	m.Truncations++
}

// cutDisk keeps the disk image's first n records, which the database now
// holds, and drops the rest; the WAL writer appends after them. The kept
// image is treated as synced: its content was durable before.
func (m *Member) cutDisk(n int) {
	m.syncT.Cancel()
	m.disk.buf = m.disk.buf[:m.disk.size(n)]
	m.disk.ends = m.disk.ends[:n]
	m.syncedRecs, m.syncArmed, m.syncNewest = n, n, n
}

// Crash models a node crash for the faults injector: volatile state is
// wiped and the durable image is torn in place at a random byte within the
// un-synced tail — only records that were never acknowledged can be lost,
// and the torn final record exercises ReadWALPrefix on restart. A dead
// member's database takes no commit until Restart: its replication and
// sync endpoints drop traffic and its timers check alive, so nothing
// appends to the torn image.
func (m *Member) Crash() {
	if !m.alive {
		return
	}
	m.alive = false
	keep := m.disk.size(m.syncedRecs)
	if unsynced := len(m.disk.buf) - keep; unsynced > 0 {
		keep += m.sched().Rand().Intn(unsynced + 1)
		m.TornBytes += uint64(len(m.disk.buf) - keep)
	}
	m.disk.buf = m.disk.buf[:keep]
	m.leaseT.Cancel()
	m.hbT.Cancel()
	m.syncT.Cancel()
	m.syncArmed, m.syncNewest = 0, 0
	if m.role == roleLeader {
		tracer := m.node.Network().Tracer
		for r, c := range m.shipCtx {
			if c.Sampled() {
				tracer.Finish(c)
				m.shipCtx[r] = trace.Context{}
			}
		}
	}
	m.role = roleFollower
	m.votes = 0
	m.setLeader(-1)
	m.matchIdx = 0
}

// Restart recovers the member from its torn durable image: the valid WAL
// prefix replays into the database, the image is cut to that prefix (the
// torn record goes), the term log truncates to match, and the member
// rejoins as a follower to be caught up by the primary.
func (m *Member) Restart() {
	if m.alive {
		return
	}
	recs, _, err := database.ReadWALPrefix(m.disk.buf)
	if err != nil && !errors.Is(err, database.ErrTruncatedWAL) {
		panic("repl: restart: " + err.Error())
	}
	if err := m.db.ResetTo(recs); err != nil {
		panic("repl: restart: " + err.Error())
	}
	m.termlog = m.termlog[:len(recs)]
	m.cutDisk(len(recs))
	m.commit = 0
	m.alive = true
	m.Restarts++
	m.resetLease()
}

// shipBytes models a ship message's wire size deterministically.
func shipBytes(msg *shipMsg) int {
	n := 48
	for _, rec := range msg.Recs {
		n += 24
		for _, op := range rec.Ops {
			n += 16 + len(op.Table) + len(op.PK)
			for _, col := range op.Schema {
				n += len(col.Name) + 8
			}
			for k, v := range op.Row {
				n += len(k) + valBytes(v)
			}
			n += valBytes(op.Key)
		}
	}
	return n
}

func valBytes(v any) int {
	switch x := v.(type) {
	case string:
		return len(x)
	case []byte:
		return len(x)
	case nil:
		return 0
	default:
		return 8
	}
}
