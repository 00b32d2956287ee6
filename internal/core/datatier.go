package core

import (
	"errors"
	"fmt"

	"mcommerce/internal/database"
	"mcommerce/internal/metrics"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/repl"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
)

// SyncPort is the data tier's well-known device-sync port: stations upload
// disconnected writes here and receive the server's verdicts.
const SyncPort simnet.Port = 750

// KVTable is the replicated table the disconnected-transaction backend
// stores authoritative rows in.
const KVTable = "kv"

// DataTierConfig parameterizes BuildDataTier.
type DataTierConfig struct {
	// Replicas is the number of replica nodes beside the primary; the
	// cluster has Replicas+1 members. Zero means 2 (a 3-way quorum).
	Replicas int
	// Policy is the conflict-resolution rule device syncs resolve under.
	Policy mobiledb.Policy
}

// DataTier is a replicated, disconnection-tolerant data tier: a primary
// member on the host node plus replica nodes behind the wired router, each
// running the log-shipping replication protocol and a device-sync service.
type DataTier struct {
	// Members is the replica group, rank order; Members[0] lives on the
	// host node and bootstraps as primary.
	Members []*repl.Member
	// Services are the per-member device-sync endpoints, rank order.
	Services []*SyncService
	// Nodes are the replica nodes this builder created (rank 1..n; the
	// primary's node belongs to the host).
	Nodes []*simnet.Node
	// Links connect each replica node to the wired router.
	Links []*simnet.Link
}

// Primary returns the current leader's member, or nil during an election.
func (dt *DataTier) Primary() *repl.Member {
	for _, m := range dt.Members {
		if m.IsLeader() {
			return m
		}
	}
	return nil
}

// Converged reports whether every live member's database is byte-identical.
func (dt *DataTier) Converged() bool {
	want := ""
	for _, m := range dt.Members {
		if !m.Alive() {
			continue
		}
		if want == "" {
			want = m.Dump()
			continue
		}
		if m.Dump() != want {
			return false
		}
	}
	return true
}

// Addrs returns each member's sync endpoint, rank order — devices rotate
// through these on redirect or timeout.
func (dt *DataTier) Addrs() []simnet.Addr {
	out := make([]simnet.Addr, len(dt.Members))
	for i, m := range dt.Members {
		out[i] = simnet.Addr{Node: m.Node().ID, Port: SyncPort}
	}
	return out
}

// BuildDataTier attaches a replica cluster to a built wired core: the
// primary member shares the host node; replica nodes hang off the router
// over LAN links, so replication traffic rides simulated links and is
// subject to the same delays, faults and tracing as everything else.
// Callers owning extra edge nodes (gateways) must route the returned
// replica node IDs toward the router themselves.
func BuildDataTier(net *simnet.Network, host *simnet.Node, router *simnet.Node, cfg DataTierConfig) (*DataTier, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}

	dt := &DataTier{}
	nodes := []*simnet.Node{host}
	for i := 1; i <= cfg.Replicas; i++ {
		nd := net.NewNode(fmt.Sprintf("%s-db%d", host.Name, i))
		lcfg := simnet.LAN
		lcfg.Name = fmt.Sprintf("%s-dblink%d", host.Name, i)
		l := simnet.Connect(nd, router, lcfg)
		nd.SetDefaultRoute(l.IfaceA())
		router.SetRoute(nd.ID, l.IfaceB())
		dt.Nodes = append(dt.Nodes, nd)
		dt.Links = append(dt.Links, l)
		nodes = append(nodes, nd)
	}

	addrs := make([]simnet.Addr, len(nodes))
	for i, nd := range nodes {
		addrs[i] = simnet.Addr{Node: nd.ID, Port: repl.Port}
	}
	for i, nd := range nodes {
		name := fmt.Sprintf("%s-r%d", host.Name, i)
		m, err := repl.New(nd, name, repl.Config{Rank: i, Members: addrs})
		if err != nil {
			return nil, fmt.Errorf("core: data tier member %d: %w", i, err)
		}
		dt.Members = append(dt.Members, m)
		svc, err := NewSyncService(m, cfg.Policy)
		if err != nil {
			return nil, fmt.Errorf("core: sync service %d: %w", i, err)
		}
		dt.Services = append(dt.Services, svc)
	}

	// The primary bootstraps the replicated schema: the DDL record rides
	// the WAL to every replica (and to every future incarnation).
	if err := EnsureKVTable(dt.Members[0].DB()); err != nil {
		return nil, fmt.Errorf("core: kv table: %w", err)
	}
	return dt, nil
}

// EnsureKVTable creates the disconnected-transaction backing table if it
// does not exist yet.
func EnsureKVTable(db *database.DB) error {
	err := db.CreateTable(KVTable, database.Schema{
		{Name: "k", Type: database.TypeString},
		{Name: "v", Type: database.TypeBytes},
		{Name: "ver", Type: database.TypeInt},
		{Name: "wts", Type: database.TypeInt},
		{Name: "origin", Type: database.TypeString},
		{Name: "clock", Type: database.TypeInt},
		{Name: "del", Type: database.TypeBool},
	}, "k")
	if errors.Is(err, database.ErrExists) {
		return nil
	}
	return err
}

// DBBackend adapts a replicated member database to the disconnected-sync
// Backend interface: accepted writes become ordinary transactions, so they
// ride the WAL, replicate, and survive failover — which also makes the
// (origin, clock) idempotency check durable across primaries.
type DBBackend struct {
	DB *database.DB
}

// Lookup implements mobiledb.Backend.
func (b DBBackend) Lookup(key string) (mobiledb.ServerEntry, bool, error) {
	var e mobiledb.ServerEntry
	found := false
	err := b.DB.Atomically(func(tx *database.Tx) error {
		row, err := tx.Get(KVTable, key)
		if errors.Is(err, database.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		found = true
		e = mobiledb.ServerEntry{
			Key:     key,
			Value:   row["v"].([]byte), // Get returns a private clone
			Deleted: row["del"].(bool),
			Ver:     uint64(row["ver"].(int64)),
			WTS:     row["wts"].(int64),
			Origin:  row["origin"].(string),
			Clock:   uint64(row["clock"].(int64)),
		}
		return nil
	})
	return e, found, err
}

// Store implements mobiledb.Backend.
func (b DBBackend) Store(e mobiledb.ServerEntry) error {
	// Update and Insert buffer a clone of the row, so it may alias e.Value.
	row := database.Row{
		"k": e.Key, "v": e.Value, "del": e.Deleted,
		"ver": int64(e.Ver), "wts": e.WTS,
		"origin": e.Origin, "clock": int64(e.Clock),
	}
	return b.DB.Atomically(func(tx *database.Tx) error {
		if err := tx.Update(KVTable, row); !errors.Is(err, database.ErrNotFound) {
			return err
		}
		return tx.Insert(KVTable, row)
	})
}

// pendingResp is a device response gated on quorum durability.
type pendingResp struct {
	walLen int
	to     simnet.Addr
	resp   *mobiledb.UpSyncResponse
	ctx    trace.Context
}

// InvalidationMsg is the broadcast-disk tick the tier pushes to
// subscribers (gateways relay it to their stations). The concrete type
// lives in mobiledb so device tiers in lower layers can type-assert the
// UDP body without importing core.
type InvalidationMsg = mobiledb.InvalidationMsg

// SyncService is one member's device-sync endpoint. Only the current
// primary applies sessions; the others redirect. Responses are held until
// the writes they acknowledge are quorum-durable — a device ack can never
// name a record a failover may lose.
type SyncService struct {
	m  *repl.Member
	sv *mobiledb.Server
	u  *simnet.UDP

	pending []pendingResp
	subs    []simnet.Addr
	// bcast is the invalidation watermark already pushed to subscribers.
	bcast uint64
	// sessionHook is the crash-during-sync tripwire (faults.SyncCrash).
	sessionHook func()

	// Redirects counts sessions bounced to the primary; AcksHeld counts
	// responses that waited on the commit barrier; Broadcasts counts
	// invalidation pushes.
	Redirects, AcksHeld, Broadcasts uint64
}

// NewSyncService attaches a sync endpoint to a replication member.
func NewSyncService(m *repl.Member, policy mobiledb.Policy) (*SyncService, error) {
	sv := mobiledb.NewServer(policy, DBBackend{DB: m.DB()})
	s := &SyncService{m: m, sv: sv, u: simnet.UDPOf(m.Node())}
	if err := s.u.Listen(SyncPort, s.recv); err != nil {
		return nil, err
	}
	m.OnCommitAdvance(s.drain)
	m.OnLeaderChange(s.onLeader)
	sc := m.Node().Network().Metrics.Instance("mobiledb.sync." + metrics.Sanitize(m.Name()))
	sc.AliasCounter("sessions", &sv.Sessions)
	sc.AliasCounter("writes", &sv.Writes)
	sc.AliasCounter("accepted", &sv.Accepted)
	sc.AliasCounter("rejected", &sv.Rejected)
	sc.AliasCounter("conflicts", &sv.ConflictsSeen)
	sc.AliasCounter("duplicates", &sv.Duplicates)
	sc.AliasCounter("blind_overwrites", &sv.BlindOverwrites)
	sc.AliasCounter("redirects", &s.Redirects)
	sc.AliasCounter("acks_held", &s.AcksHeld)
	sc.AliasCounter("broadcasts", &s.Broadcasts)
	sc.GaugeFunc("pending", func() int64 { return int64(len(s.pending)) })
	return s, nil
}

// Server returns the conflict-resolution engine (counters, policy).
func (s *SyncService) Server() *mobiledb.Server { return s.sv }

// Subscribe adds an invalidation-stream subscriber (a gateway or cell
// aggregator address listening on the caller's chosen port).
func (s *SyncService) Subscribe(addr simnet.Addr) { s.subs = append(s.subs, addr) }

// OnSessionStart installs fn to run as each upload session begins — the
// seam faults.RegisterSyncTrigger arms to model crash-during-sync.
func (s *SyncService) OnSessionStart(fn func()) { s.sessionHook = fn }

// Crash drops the service's volatile state: pending device responses are
// lost (devices time out and retry — the protocol is idempotent) and the
// in-memory invalidation log resets with its watermark.
func (s *SyncService) Crash() {
	tr := s.m.Node().Network().Tracer
	for _, p := range s.pending {
		tr.Annotate(p.ctx, "sync.crash")
		tr.Finish(p.ctx)
	}
	s.pending = nil
	s.sv.Reset()
	s.bcast = 0
}

// onLeader runs on every change of the member's leadership view. The
// moment this member stops being the primary its held device acks are
// void: the records they gate on are beyond the commit index, so an
// interregnum may truncate and rebuild the log past each pending walLen
// with different records — if this member later re-won an election, its
// commit passing that walLen would release an ack for writes the failover
// lost. Dropping the responses keeps the invariant that an ack can never
// name a record a failover may lose; devices time out, retry the session,
// and the (origin, clock) idempotency check keeps the retry safe.
func (s *SyncService) onLeader(int) {
	if s.m.IsLeader() || len(s.pending) == 0 {
		return
	}
	tr := s.m.Node().Network().Tracer
	for _, p := range s.pending {
		tr.Annotate(p.ctx, "sync.leadership_lost")
		tr.Finish(p.ctx)
	}
	s.pending = nil
}

func (s *SyncService) recv(_ simnet.Port, from simnet.Addr, body any, bytes int) {
	req, ok := body.(*mobiledb.UpSyncRequest)
	if !ok || !s.m.Alive() {
		return
	}
	if s.sessionHook != nil {
		s.sessionHook()
		if !s.m.Alive() { // the tripwire crashed this node mid-session
			return
		}
	}
	tr := s.m.Node().Network().Tracer
	ctx := tr.StartTrace("mobiledb.sync.session", trace.LayerHost)
	tr.Annotate(ctx, fmt.Sprintf("from=%s writes=%d", req.From, len(req.Writes)))
	if !s.m.IsLeader() {
		s.Redirects++
		tr.Annotate(ctx, "redirect")
		s.reply(from, &mobiledb.UpSyncResponse{
			From: s.m.Name(), Session: req.Session, Retry: true, RedirectRank: s.m.Leader(),
		}, ctx)
		return
	}
	resp, err := s.sv.Apply(req)
	if err != nil {
		// Backend failures only happen if the schema is gone — a wiring
		// bug, not a runtime condition.
		panic(fmt.Sprintf("core: sync apply: %v", err))
	}
	resp.From = s.m.Name()
	// Gate the ack on quorum durability of everything this session wrote.
	wl := s.m.DB().WALLen()
	if s.m.Commit() >= wl {
		s.reply(from, resp, ctx)
		return
	}
	s.AcksHeld++
	s.pending = append(s.pending, pendingResp{walLen: wl, to: from, resp: resp, ctx: ctx})
}

// drain runs on every commit advance: release ripened device acks and
// push fresh invalidations to subscribers.
func (s *SyncService) drain(commit int) {
	if !s.m.Alive() || !s.m.IsLeader() {
		return
	}
	keep := s.pending[:0]
	for _, p := range s.pending {
		if p.walLen <= commit {
			s.reply(p.to, p.resp, p.ctx)
			continue
		}
		keep = append(keep, p)
	}
	s.pending = keep
	if through := s.sv.InvThrough(); through > s.bcast {
		msg := &InvalidationMsg{
			Invalid: s.sv.InvSince(s.bcast),
			Through: through,
		}
		s.bcast = through
		for _, sub := range s.subs {
			s.u.Send(SyncPort, sub, msg, 16+20*len(msg.Invalid))
			s.Broadcasts++
		}
	}
}

// reply sends a response and closes its session span.
func (s *SyncService) reply(to simnet.Addr, resp *mobiledb.UpSyncResponse, ctx trace.Context) {
	tr := s.m.Node().Network().Tracer
	prev := tr.Swap(ctx)
	s.u.Send(SyncPort, to, resp, resp.WireBytes())
	tr.Swap(prev)
	tr.Finish(ctx)
}
