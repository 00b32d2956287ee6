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
// The protocol is transport-agnostic: SyncRequest/SyncResponse are plain
// values that applications ship over the simulated network (the inventory
// example posts them through the web server).
package mobiledb
