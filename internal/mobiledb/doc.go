// Package mobiledb implements the embedded database of the paper's Section
// 7: "a growing trend is to provide a mobile database or an embedded
// database to a handheld device ... Embedded databases have very small
// footprints, and must be able to run without the services of a database
// administrator and accommodate the low-bandwidth constraints of a
// wireless-handheld network."
//
// Store is a key-value store with a hard byte budget (the small footprint:
// Table 2 devices have 8–64 MB of RAM). A write over the budget fails with
// ErrFull; the store never evicts to make room.
//
// A store syncs with one server through disconnected transactions
// (disconnected.go): PutTentative queues writes while the bearer is down,
// BeginUpSync snapshots them into an upload session, Server.Apply
// resolves them against the server's backend under a conflict policy,
// and FinishUpSync installs the server's verdicts. The store does not
// track open sessions; its caller keeps at most one in flight, and a
// session abandoned on timeout leaves its writes tentative for the next.
// Cached copies self-heal from the server's invalidation stream, tick by
// tick (ApplyInvalidations) or as a window summarized per key
// (ApplyInvalidationIndex).
//
// The protocol is transport-agnostic: UpSyncRequest and UpSyncResponse
// are plain values. The replicated data tier carries them in UDP
// datagrams, and the inventory service posts them as JSON through the web
// server.
package mobiledb
