package wap

import (
	"errors"
	"sort"
	"time"

	"mcommerce/internal/faults"
	"mcommerce/internal/metrics"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
)

// GatewayPort is the well-known WAP gateway datagram port (the real
// connectionless-session port is 9201).
const GatewayPort simnet.Port = 9201

// WTP errors.
var (
	// ErrAborted reports a transaction that exhausted its retries.
	ErrAborted = errors.New("wap: transaction aborted")
)

// wtpHeaderBytes approximates the WTP+WSP header cost per message.
const wtpHeaderBytes = 8

// wtpInvoke initiates a transaction (class 2: result expected).
type wtpInvoke struct {
	TID   uint32
	Body  any
	Bytes int
}

// wtpResult carries the responder's answer.
type wtpResult struct {
	TID   uint32
	Body  any
	Bytes int
}

// wtpAck closes a transaction.
type wtpAck struct {
	TID uint32
}

// WTPConfig tunes the transaction layer.
type WTPConfig struct {
	// RetryInterval is the retransmission interval. Zero means 1.5s.
	RetryInterval time.Duration
	// MaxRetries bounds retransmissions per message. Zero means 4;
	// negative disables retransmission entirely (one shot per message).
	MaxRetries int
	// MaxPDU is the segmentation threshold: messages larger than this
	// are split into MaxPDU-sized segments with selective retransmission
	// (WTP's SAR feature). Zero means 1400; negative disables SAR.
	MaxPDU int
	// Backoff grows the retransmission interval across attempts. The zero
	// value keeps the legacy fixed RetryInterval; set Factor/Cap/Jitter to
	// get capped exponential backoff with deterministic jitter. Base is
	// ignored — RetryInterval is always the base.
	Backoff faults.Backoff
}

func (c WTPConfig) withDefaults() WTPConfig {
	if c.RetryInterval <= 0 {
		c.RetryInterval = 1500 * time.Millisecond
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 4
	case c.MaxRetries < 0:
		c.MaxRetries = -1
	}
	if c.MaxPDU == 0 {
		c.MaxPDU = 1400
	}
	return c
}

// WTPStats counts transaction-layer activity.
type WTPStats struct {
	Invokes     uint64
	Results     uint64
	Retransmits uint64
	Duplicates  uint64
	Aborts      uint64
	// SAR counters (segmentation and reassembly, see sar.go).
	SARSegmented    uint64 // messages sent segmented
	SARReassembled  uint64 // groups completed at the receiver
	SARNacks        uint64 // selective-retransmission requests sent
	SARSelectiveRtx uint64 // segments re-sent in answer to nacks
}

// WTP is one endpoint's transaction layer: it can both initiate
// transactions (Invoke) and respond to them (a registered handler).
type WTP struct {
	node *simnet.Node
	port simnet.Port
	cfg  WTPConfig

	nextTID uint32
	// initiator state
	pending map[uint32]*wtpPending
	// responder state
	handler func(from simnet.Addr, body any, respond func(any, int))
	served  map[respKey]*wtpServed

	// SAR state (segmentation and reassembly).
	assemblies map[sarGroupKey]*sarAssembly
	sarSends   map[sarGroupKey]*sarSendState

	stats WTPStats

	// backoffWaits counts retransmission-delay computations — the WTP
	// analogue of "backoff sleeps" in a threaded stack.
	backoffWaits metrics.Counter
}

type wtpPending struct {
	to      simnet.Addr
	inv     *wtpInvoke
	done    func(any, int, error)
	retries int
	timer   simnet.Timer
	// ctx is the transaction's "wap.wtp.request" span: retransmission
	// timers fire without ambient context, so the pending record carries
	// it explicitly.
	ctx trace.Context
}

type respKey struct {
	from simnet.Addr
	tid  uint32
}

type wtpServed struct {
	result  *wtpResult // nil while the handler is still working
	to      simnet.Addr
	acked   bool
	retries int
	timer   simnet.Timer
	// ctx is the initiator's request-span context, captured from the
	// invoke packet so result (re)transmissions join the same trace.
	ctx trace.Context
}

// NewWTP binds a transaction endpoint to a node's datagram port.
func NewWTP(node *simnet.Node, port simnet.Port, cfg WTPConfig) (*WTP, error) {
	w := &WTP{
		node:       node,
		port:       port,
		cfg:        cfg.withDefaults(),
		pending:    make(map[uint32]*wtpPending),
		served:     make(map[respKey]*wtpServed),
		assemblies: make(map[sarGroupKey]*sarAssembly),
		sarSends:   make(map[sarGroupKey]*sarSendState),
	}
	if err := simnet.UDPOf(node).Listen(port, w.deliver); err != nil {
		return nil, err
	}
	w.registerMetrics()
	return w, nil
}

// NewWTPAny binds to an ephemeral port (client side). A device needs one:
// every WSP session it opens runs over the same endpoint, whose TIDs keep
// the sessions' transactions apart.
func NewWTPAny(node *simnet.Node, cfg WTPConfig) *WTP {
	w := &WTP{
		node:       node,
		cfg:        cfg.withDefaults(),
		pending:    make(map[uint32]*wtpPending),
		served:     make(map[respKey]*wtpServed),
		assemblies: make(map[sarGroupKey]*sarAssembly),
		sarSends:   make(map[sarGroupKey]*sarSendState),
	}
	w.port = simnet.UDPOf(node).ListenAny(w.deliver)
	w.registerMetrics()
	return w
}

// registerMetrics aliases the endpoint's counters into the world registry
// under wap.wtp.<node name>.
func (w *WTP) registerMetrics() {
	sc := w.node.Network().Metrics.Instance("wap.wtp." + metrics.Sanitize(w.node.Name))
	sc.AliasCounter("invokes", &w.stats.Invokes)
	sc.AliasCounter("results", &w.stats.Results)
	sc.AliasCounter("retransmits", &w.stats.Retransmits)
	sc.AliasCounter("duplicates", &w.stats.Duplicates)
	sc.AliasCounter("aborts", &w.stats.Aborts)
	sc.AliasCounter("sar_segmented", &w.stats.SARSegmented)
	sc.AliasCounter("sar_reassembled", &w.stats.SARReassembled)
	sc.AliasCounter("sar_nacks", &w.stats.SARNacks)
	sc.AliasCounter("sar_selective_rtx", &w.stats.SARSelectiveRtx)
	w.backoffWaits = sc.Counter("backoff_waits")
}

// Addr returns the endpoint's datagram address.
func (w *WTP) Addr() simnet.Addr { return simnet.Addr{Node: w.node.ID, Port: w.port} }

// tracer returns the world's span tracer (all methods nil-safe no-ops
// when tracing is disabled).
func (w *WTP) tracer() *trace.Tracer { return w.node.Network().Tracer }

// retryDelay is the wait before retransmission attempt n (0-based):
// RetryInterval under the legacy fixed policy, grown and jittered when the
// config carries a Backoff.
func (w *WTP) retryDelay(attempt int) time.Duration {
	w.backoffWaits.Inc()
	b := w.cfg.Backoff
	b.Base = w.cfg.RetryInterval
	return b.Delay(attempt, w.node.Sched().Rand())
}

// Reset models a crash of this endpoint: every pending initiator
// transaction aborts with ErrAborted, every responder-side transaction and
// reassembly buffer is dropped, and all retransmission timers are
// cancelled. Counters survive (they are measurement, not protocol state).
// TIDs keep advancing so post-restart transactions never collide with
// pre-crash ones.
func (w *WTP) Reset() {
	// Sorted TID order keeps abort-callback scheduling deterministic.
	tids := make([]uint32, 0, len(w.pending))
	for tid := range w.pending {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		p := w.pending[tid]
		delete(w.pending, tid)
		p.timer.Cancel()
		w.stats.Aborts++
		w.tracer().Annotate(p.ctx, "wtp.abort")
		w.tracer().Finish(p.ctx)
		if p.done != nil {
			p.done(nil, 0, ErrAborted)
		}
	}
	for _, sv := range w.served {
		sv.timer.Cancel()
	}
	w.served = make(map[respKey]*wtpServed)
	w.assemblies = make(map[sarGroupKey]*sarAssembly)
	w.sarSends = make(map[sarGroupKey]*sarSendState)
}

// Stats returns a snapshot of the endpoint's counters.
func (w *WTP) Stats() WTPStats { return w.stats }

// Handle registers the responder callback. The callback must eventually
// call respond exactly once with the result body and its wire size.
func (w *WTP) Handle(h func(from simnet.Addr, body any, respond func(any, int))) {
	w.handler = h
}

// Invoke starts a class-2 transaction: body is delivered to the responder
// at 'to', and done fires with the result (or ErrAborted).
func (w *WTP) Invoke(to simnet.Addr, body any, bytes int, done func(result any, bytes int, err error)) {
	w.nextTID++
	p := &wtpPending{
		to:   to,
		inv:  &wtpInvoke{TID: w.nextTID, Body: body, Bytes: bytes},
		done: done,
	}
	// One span per transaction, parented on the caller's context; it ends
	// at the result (or abort), so its duration is the request round trip
	// including every retransmission wait.
	p.ctx = w.tracer().StartSpan(w.tracer().Current(), "wap.wtp.request", trace.LayerTransport)
	w.pending[p.inv.TID] = p
	w.stats.Invokes++
	w.sendInvoke(p)
}

func (w *WTP) sendInvoke(p *wtpPending) {
	prev := w.tracer().Swap(p.ctx)
	defer w.tracer().Swap(prev)
	if st := w.maybeSegment(p.to, p.inv.TID, false, p.inv.Body, p.inv.Bytes); st != nil {
		// Retries below poll with segment 0; nacks drive the rest.
		w.sendSegments(st, nil)
	} else {
		simnet.UDPOf(w.node).Send(w.port, p.to, p.inv, p.inv.Bytes+wtpHeaderBytes)
	}
	p.timer = w.node.Sched().After(w.retryDelay(p.retries), func() {
		p.retries++
		if p.retries > w.cfg.MaxRetries {
			delete(w.pending, p.inv.TID)
			w.stats.Aborts++
			w.tracer().Annotate(p.ctx, "wtp.abort")
			w.tracer().Finish(p.ctx)
			if p.done != nil {
				p.done(nil, 0, ErrAborted)
			}
			return
		}
		w.stats.Retransmits++
		w.tracer().Annotate(p.ctx, "wtp.retransmit")
		w.resendInvoke(p)
	})
}

// resendInvoke retries an invoke: a segmented group polls with segment 0,
// an unsegmented invoke goes out whole.
func (w *WTP) resendInvoke(p *wtpPending) {
	if st, ok := w.sarSends[sarGroupKey{from: p.to, tid: p.inv.TID, result: false}]; ok {
		prev := w.tracer().Swap(p.ctx)
		w.sendSegments(st, []int{0})
		w.tracer().Swap(prev)
		p.timer = w.node.Sched().After(w.retryDelay(p.retries), func() {
			p.retries++
			if p.retries > w.cfg.MaxRetries {
				delete(w.pending, p.inv.TID)
				delete(w.sarSends, sarGroupKey{from: p.to, tid: p.inv.TID, result: false})
				w.stats.Aborts++
				w.tracer().Annotate(p.ctx, "wtp.abort")
				w.tracer().Finish(p.ctx)
				if p.done != nil {
					p.done(nil, 0, ErrAborted)
				}
				return
			}
			w.stats.Retransmits++
			w.tracer().Annotate(p.ctx, "wtp.retransmit")
			w.resendInvoke(p)
		})
		return
	}
	w.sendInvoke(p)
}

// maybeSegment registers a SAR send when the message exceeds MaxPDU,
// returning its state (nil when the message goes whole).
func (w *WTP) maybeSegment(to simnet.Addr, tid uint32, result bool, body any, bytes int) *sarSendState {
	if w.cfg.MaxPDU <= 0 || bytes <= w.cfg.MaxPDU {
		return nil
	}
	count := (bytes + w.cfg.MaxPDU - 1) / w.cfg.MaxPDU
	st := &sarSendState{
		to: to, tid: tid, result: result,
		count: count, body: body, total: bytes,
	}
	w.sarSends[sarGroupKey{from: to, tid: tid, result: result}] = st
	w.stats.SARSegmented++
	return st
}

func (w *WTP) deliver(_ simnet.Port, from simnet.Addr, body any, _ int) {
	switch m := body.(type) {
	case *wtpInvoke:
		w.onInvoke(from, m)
	case *wtpResult:
		w.onResult(from, m)
	case *wtpAck:
		w.onAck(from, m)
	case *wtpSegment:
		w.onSegment(from, m)
	case *wtpSarNack:
		w.onSarNack(from, m)
	}
}

func (w *WTP) onInvoke(from simnet.Addr, m *wtpInvoke) {
	key := respKey{from: from, tid: m.TID}
	if sv, ok := w.served[key]; ok {
		// Duplicate invoke: retransmit the result if ready.
		w.stats.Duplicates++
		if sv.result != nil && !sv.acked {
			w.sendResult(sv, key)
		}
		return
	}
	if w.handler == nil {
		return
	}
	// The invoke packet's context is ambient here; result transmissions
	// (including timer-driven retries) rejoin it through sv.ctx.
	sv := &wtpServed{to: from, ctx: w.tracer().Current()}
	w.served[key] = sv
	responded := false
	w.handler(from, m.Body, func(result any, bytes int) {
		if responded {
			return
		}
		responded = true
		sv.result = &wtpResult{TID: m.TID, Body: result, Bytes: bytes}
		w.stats.Results++
		w.sendResult(sv, key)
	})
}

func (w *WTP) sendResult(sv *wtpServed, key respKey) {
	prev := w.tracer().Swap(sv.ctx)
	defer w.tracer().Swap(prev)
	gk := sarGroupKey{from: sv.to, tid: sv.result.TID, result: true}
	if st, ok := w.sarSends[gk]; ok {
		// Retry: poll with segment 0.
		w.sendSegments(st, []int{0})
	} else if st := w.maybeSegment(sv.to, sv.result.TID, true, sv.result.Body, sv.result.Bytes); st != nil {
		w.sendSegments(st, nil)
	} else {
		simnet.UDPOf(w.node).Send(w.port, sv.to, sv.result, sv.result.Bytes+wtpHeaderBytes)
	}
	sv.timer.Cancel()
	sv.timer = w.node.Sched().After(w.retryDelay(sv.retries), func() {
		if sv.acked {
			return
		}
		sv.retries++
		if sv.retries > w.cfg.MaxRetries {
			delete(w.served, key)
			return
		}
		w.stats.Retransmits++
		w.tracer().Annotate(sv.ctx, "wtp.retransmit")
		w.sendResult(sv, key)
	})
}

func (w *WTP) onResult(from simnet.Addr, m *wtpResult) {
	p, ok := w.pending[m.TID]
	if !ok || p.to != from {
		// Late result after we gave up (or duplicate): ack so the
		// responder stops retransmitting.
		simnet.UDPOf(w.node).Send(w.port, from, &wtpAck{TID: m.TID}, wtpHeaderBytes)
		return
	}
	delete(w.pending, m.TID)
	delete(w.sarSends, sarGroupKey{from: from, tid: m.TID, result: false})
	p.timer.Cancel()
	simnet.UDPOf(w.node).Send(w.port, from, &wtpAck{TID: m.TID}, wtpHeaderBytes)
	w.tracer().Finish(p.ctx)
	if p.done != nil {
		p.done(m.Body, m.Bytes, nil)
	}
}

func (w *WTP) onAck(from simnet.Addr, m *wtpAck) {
	key := respKey{from: from, tid: m.TID}
	if sv, ok := w.served[key]; ok {
		sv.acked = true
		delete(w.sarSends, sarGroupKey{from: from, tid: m.TID, result: true})
		sv.timer.Cancel()
		// Keep the tombstone briefly for duplicate suppression, then
		// reclaim it.
		hold := w.cfg.RetryInterval * time.Duration(w.cfg.MaxRetries+1)
		if hold < w.cfg.RetryInterval {
			hold = w.cfg.RetryInterval
		}
		w.node.Sched().After(hold, func() { delete(w.served, key) })
	}
}
