// Package database implements the database-server third of the paper's
// host computers component (Section 7): the store behind the Web server
// that "produces and stores all the information for mobile commerce
// applications".
//
// It is a small embedded relational-style engine:
//
//   - typed tables with a declared schema and a primary key;
//   - ACID transactions run one at a time: DB.Atomically holds the
//     database mutex from begin to commit or abort, so transactions are
//     serial by construction and need no locks, conflict errors or
//     retries (the single-threaded partition of H-Store, Stonebraker et
//     al., VLDB 2007); writes are buffered until commit and an abort
//     discards them;
//   - a write-ahead log of committed transactions, persisted as binary
//     checksummed records (PersistTo) and replayable for crash recovery
//     (ReadWALPrefix decodes an image, ResetTo rebuilds from a log);
//   - immutable committed rows, shared by the tables and the log;
//   - primary-key-ordered scans that see the transaction's own writes.
//
// The engine is safe for concurrent use from multiple goroutines, which
// queue on the mutex; inside the single-threaded simulation it is simply
// called synchronously from application handlers. Disconnected and
// mobile transactions belong to the mobile-side counterpart with
// synchronization in internal/mobiledb ("a growing trend is to provide a
// mobile database or an embedded database to a handheld device").
package database
