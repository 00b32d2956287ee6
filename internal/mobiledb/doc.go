// Package mobiledb implements the embedded database of the paper's Section
// 7: "a growing trend is to provide a mobile database or an embedded
// database to a handheld device ... Embedded databases have very small
// footprints, and must be able to run without the services of a database
// administrator and accommodate the low-bandwidth constraints of a
// wireless-handheld network."
//
// Store is a key-value store with a hard byte budget (the small footprint:
// Table 2 devices have 8–64 MB of RAM) and a change log. A write over the
// budget fails with ErrFull; the store never evicts to make room. Replicas converge
// through an incremental sync protocol designed for low-bandwidth,
// intermittently connected links:
//
//   - each replica keeps a Lamport-style logical clock; every local write
//     stamps an entry;
//   - a sync session ships only entries the peer has not seen (tracked by
//     per-peer high-water marks), including deletion tombstones;
//   - concurrent updates resolve last-writer-wins by (clock, replica name),
//     so any two replicas that exchange changes in both directions converge
//     to identical state.
//
// Disconnected transactions (disconnected.go) add a device/server mode:
// PutTentative queues writes while the bearer is down, BeginUpSync
// snapshots them into an upload session and FinishUpSync installs the
// server's verdicts. The store does not track open sessions; its caller
// keeps at most one in flight, and a session abandoned on timeout leaves
// its writes tentative for the next. Cached copies self-heal from the
// server's invalidation stream, tick by tick (ApplyInvalidations) or as
// a window summarized per key (ApplyInvalidationIndex).
//
// The protocol is transport-agnostic: SyncRequest/SyncResponse are plain
// values that applications ship over the simulated network (the inventory
// example posts them through the web server).
package mobiledb
