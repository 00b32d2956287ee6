// Package simnet is a deterministic discrete-event network simulation
// kernel. It is the substrate on which every other subsystem of the mobile
// commerce reproduction is built: wired LAN/WAN links (component (v) of the
// paper's model), and — via the Medium interface — the wireless LAN and
// cellular radio models in internal/wireless and internal/cellular.
//
// The kernel provides:
//
//   - a virtual clock and an event scheduler (Scheduler) with cancellable
//     timers, driven by a binary heap keyed on (time, sequence) so that
//     execution order is fully deterministic for a given seed;
//   - packets (Packet) with simulated wire sizes decoupled from their Go
//     payloads, so protocol headers can be accounted for without byte-level
//     marshalling;
//   - nodes (Node) with interfaces, static routing, protocol demultiplexing
//     and forwarding taps (used by the Snoop agent and Mobile IP);
//   - point-to-point duplex links (Link) with bandwidth, propagation delay,
//     jitter, drop-tail queues and two loss models (independent per-packet
//     Loss and size-dependent BitErrorRate), which model the paper's wired
//     networks component. Each direction counts delivered, lost,
//     dropped_queue and dropped_down packets.
//
// All simulation state is single-threaded: callbacks run on the goroutine
// that calls Scheduler.Run. Determinism is a design requirement — every
// experiment in EXPERIMENTS.md must be exactly repeatable from its seed.
//
// For worlds too large for one core, Sharded runs several Networks — one
// per gateway cluster, built by the caller on Shard(k) — under a
// conservative time-window protocol: a cross link (Sharded.Cross) is a
// Link whose delivery crosses the shard pair's exchange ring, and the
// smallest cross-link delay is the window width (Sharded.Lookahead). Each shard keeps the single-goroutine ownership
// story above: within a window exactly one goroutine drives a shard's
// scheduler, registry, tracer and pools, and the scoreboard that hands
// out windows and ring drains carries the happens-before edges between
// them. Execution is invariant to the number of worker goroutines, so a
// parallel run is byte-identical to a serial one at the same seed.
package simnet
