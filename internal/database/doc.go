// Package database implements the database-server third of the paper's
// host computers component (Section 7): the store behind the Web server
// that "produces and stores all the information for mobile commerce
// applications".
//
// It is a small embedded relational-style engine:
//
//   - typed tables with a declared schema and a primary key;
//   - ACID transactions under strict two-phase locking with a no-wait
//     conflict policy (a conflicting lock acquisition fails immediately
//     with ErrLocked instead of blocking, which makes deadlock impossible;
//     callers retry);
//   - a write-ahead log of committed transactions, persisted as binary
//     checksummed records (PersistTo) and replayable for crash recovery
//     (ReadWALPrefix decodes an image, ResetTo rebuilds from a log);
//   - immutable committed rows, shared by the tables and the log;
//   - snapshot-free scans that take read locks row by row.
//
// The engine is safe for concurrent use from multiple goroutines; inside
// the single-threaded simulation it is simply called synchronously from
// application handlers. The mobile-side counterpart with synchronization
// lives in internal/mobiledb ("a growing trend is to provide a mobile
// database or an embedded database to a handheld device").
package database
