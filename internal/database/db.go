package database

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// table is the in-memory storage for one table.
type table struct {
	name   string
	schema Schema
	key    string // primary key column (TypeString or TypeInt)
	rows   map[any]Row
}

// DB is the embedded database engine. mu serialises everything: each
// method holds it, and Atomically holds it for a whole transaction.
type DB struct {
	mu       sync.Mutex
	tables   map[string]*table
	nextTx   uint64
	wal      []LogRecord
	walSink  *WALWriter
	onCommit func(rec LogRecord, walLen int)

	commits, aborts uint64
}

// New creates an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*table)}
}

// Stats reports cumulative commits and aborts and the number of tables.
func (db *DB) Stats() (commits, aborts uint64, tables int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.commits, db.aborts, len(db.tables)
}

// CreateTable declares a table. key names the primary-key column, which
// must exist in the schema and be a string or int column. The declaration
// is logged as an auto-committed OpCreate record, so a WAL replay (or a
// replica applying shipped records) reconstructs the schema without an
// out-of-band declare step.
func (db *DB) CreateTable(name string, schema Schema, key string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.createTable(name, schema, key); err != nil {
		return err
	}
	rec := LogRecord{Ops: []Op{{
		Kind: OpCreate, Table: name,
		Schema: db.tables[name].schema, PK: key,
	}}}
	return db.appendRecord(rec)
}

// createTable declares a table in memory. Caller holds db.mu.
func (db *DB) createTable(name string, schema Schema, key string) error {
	if _, ok := db.tables[name]; ok {
		return fmt.Errorf("%w: table %q", ErrExists, name)
	}
	var keyCol *Column
	for i := range schema {
		if schema[i].Name == key {
			keyCol = &schema[i]
		}
	}
	if keyCol == nil {
		return fmt.Errorf("%w: key column %q", ErrNotFound, key)
	}
	if keyCol.Type != TypeString && keyCol.Type != TypeInt {
		return fmt.Errorf("%w: key column must be string or int", ErrType)
	}
	sc := make(Schema, len(schema))
	copy(sc, schema)
	db.tables[name] = &table{
		name:   name,
		schema: sc,
		key:    key,
		rows:   make(map[any]Row),
	}
	return nil
}

// appendRecord adds a record to the in-memory WAL, the durable sink and
// the commit hook, in that order. Caller holds db.mu.
func (db *DB) appendRecord(rec LogRecord) error {
	db.wal = append(db.wal, rec)
	var err error
	if db.walSink != nil {
		err = db.walSink.write(rec)
	}
	if db.onCommit != nil {
		db.onCommit(rec, len(db.wal))
	}
	return err
}

// OpKind distinguishes logged operations.
type OpKind int

// Logged operation kinds.
const (
	OpInsert OpKind = iota + 1
	OpUpdate
	OpDelete
	// OpCreate is a DDL record: CreateTable logged so that replaying the
	// WAL alone reconstructs schema as well as rows.
	OpCreate
)

// Op is one logged mutation.
type Op struct {
	Kind  OpKind
	Table string
	Key   any
	Row   Row // nil for deletes and DDL
	// DDL payload, set only for OpCreate.
	Schema Schema
	PK     string
}

// LogRecord is one committed transaction in the write-ahead log.
type LogRecord struct {
	TxID uint64
	Ops  []Op
}

// applyOps replays one record's operations into the tables. OpCreate on an
// existing table is idempotent, so a replica may apply a shipped DDL record
// for a schema it already holds. The tables keep the records' rows without
// copying them (committed rows are immutable, see Row). Caller holds db.mu
// or owns the DB solely.
func (db *DB) applyOps(ops []Op) error {
	for _, op := range ops {
		if op.Kind == OpCreate {
			if err := db.createTable(op.Table, op.Schema, op.PK); err != nil && !errors.Is(err, ErrExists) {
				return err
			}
			continue
		}
		t, ok := db.tables[op.Table]
		if !ok {
			return fmt.Errorf("%w: table %q", ErrNotFound, op.Table)
		}
		switch op.Kind {
		case OpInsert, OpUpdate:
			t.rows[op.Key] = op.Row
		case OpDelete:
			delete(t.rows, op.Key)
		}
	}
	return nil
}

// ApplyRecord installs one replicated log record: its operations execute
// directly, outside any transaction (the caller is a replica with no local
// writers), the record is appended to the WAL and streamed to the durable
// sink. TxIDs advance so a replica promoted to primary continues the
// sequence.
func (db *DB) ApplyRecord(rec LogRecord) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.applyOps(rec.Ops); err != nil {
		return err
	}
	if rec.TxID > db.nextTx {
		db.nextTx = rec.TxID
	}
	return db.appendRecord(rec)
}

// ResetTo rebuilds the database in place from a log prefix: all tables and
// rows are discarded and the given records replay from scratch (their
// OpCreate DDL records recreate the schema). This is the recovery step a
// replica takes on restart and when a new primary's history supersedes its
// own un-acknowledged tail. An attached durable sink stays attached and
// receives nothing for the replayed records: recovery cuts the durable
// image to the same prefix and never rewrites it, so the caller keeps the
// image's first len(wal) records, and the next commit appends after them.
func (db *DB) ResetTo(wal []LogRecord) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables = make(map[string]*table)
	db.wal = nil
	db.nextTx = 0
	for _, rec := range wal {
		if err := db.applyOps(rec.Ops); err != nil {
			return fmt.Errorf("database: reset: %w", err)
		}
		db.wal = append(db.wal, rec)
		if rec.TxID > db.nextTx {
			db.nextTx = rec.TxID
		}
	}
	return nil
}

// WALLen reports the number of committed records without copying the log.
func (db *DB) WALLen() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.wal)
}

// WALRange copies records [from, to) of the committed log; the bounds are
// clamped. Records are shared structure — their rows are the committed
// rows of this database's tables, and of every replica that applies them —
// so callers must treat them as immutable (the replication layer ships
// them over simnet links, where bodies must never be mutated after send).
func (db *DB) WALRange(from, to int) []LogRecord {
	db.mu.Lock()
	defer db.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if to > len(db.wal) {
		to = len(db.wal)
	}
	if from >= to {
		return nil
	}
	out := make([]LogRecord, to-from)
	copy(out, db.wal[from:to])
	return out
}

// OnCommit registers fn, called after every WAL append (transaction
// commits and DDL) with the record and the new log length. It runs with
// the database lock held: fn must not call back into the database — hand
// the record off (e.g. schedule a replication ship) and return.
func (db *DB) OnCommit(fn func(rec LogRecord, walLen int)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.onCommit = fn
}

// Dump renders the full database state canonically: tables in sorted
// order, rows in primary-key order, columns in schema order. Two databases
// with identical logical state produce byte-identical dumps, which is how
// the replication experiments pin convergence.
func (db *DB) Dump() string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var b []byte
	for _, n := range names {
		t := db.tables[n]
		b = fmt.Appendf(b, "table %s key=%s rows=%d\n", n, t.key, len(t.rows))
		keys := make([]any, 0, len(t.rows))
		for k := range t.rows {
			keys = append(keys, k)
		}
		sortKeys(keys)
		for _, k := range keys {
			row := t.rows[k]
			b = fmt.Appendf(b, "  %v:", k)
			for _, col := range t.schema {
				b = fmt.Appendf(b, " %s=%v", col.Name, row[col.Name])
			}
			b = append(b, '\n')
		}
	}
	return string(b)
}

// Tx is one transaction of Atomically. Its writes are buffered and reach
// the tables and the WAL only at commit; its reads see its own buffered
// writes. Transactions run one at a time, so a Tx takes no locks.
type Tx struct {
	db     *DB
	id     uint64
	done   bool
	writes map[string]map[any]*Op // nil until the first write
}

// table resolves a table name, failing with ErrDone once the transaction
// has finished.
func (tx *Tx) table(name string) (*table, error) {
	if tx.done {
		return nil, ErrDone
	}
	t, ok := tx.db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: table %q", ErrNotFound, name)
	}
	return t, nil
}

// lookup returns the row under key as this transaction sees it: its own
// buffered write if there is one, else the committed row; nil if neither
// holds a row (a buffered delete has no row).
func (tx *Tx) lookup(t *table, key any) Row {
	if op, ok := tx.writes[t.name][key]; ok {
		return op.Row
	}
	return t.rows[key]
}

// Get returns a copy of a row by primary key. A write earlier in the same
// transaction is visible.
func (tx *Tx) Get(tableName string, key any) (Row, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return nil, err
	}
	r := tx.lookup(t, key)
	if r == nil {
		return nil, ErrNotFound
	}
	return r.Clone(), nil
}

// Insert adds a new row; the primary key must not exist.
func (tx *Tx) Insert(tableName string, row Row) error {
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	if err := t.schema.validate(row); err != nil {
		return err
	}
	key := row[t.key]
	if tx.lookup(t, key) != nil {
		return fmt.Errorf("%w: key %v in %q", ErrExists, key, tableName)
	}
	tx.bufferWrite(&Op{Kind: OpInsert, Table: tableName, Key: key, Row: row.Clone()})
	return nil
}

// Update replaces an existing row (matched by the row's primary key).
func (tx *Tx) Update(tableName string, row Row) error {
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	if err := t.schema.validate(row); err != nil {
		return err
	}
	key := row[t.key]
	if tx.lookup(t, key) == nil {
		return fmt.Errorf("%w: key %v in %q", ErrNotFound, key, tableName)
	}
	tx.bufferWrite(&Op{Kind: OpUpdate, Table: tableName, Key: key, Row: row.Clone()})
	return nil
}

// Delete removes a row by primary key.
func (tx *Tx) Delete(tableName string, key any) error {
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	if tx.lookup(t, key) == nil {
		return fmt.Errorf("%w: key %v in %q", ErrNotFound, key, tableName)
	}
	tx.bufferWrite(&Op{Kind: OpDelete, Table: tableName, Key: key})
	return nil
}

// bufferWrite records op as the transaction's pending write to its key.
// The latest op for a key wins, except that an update of a row this
// transaction inserted stays an insert. An insert followed by a delete
// therefore logs a delete even when the row never existed before
// committing: applying it removes nothing.
func (tx *Tx) bufferWrite(op *Op) {
	ops, ok := tx.writes[op.Table]
	if !ok {
		if tx.writes == nil {
			tx.writes = make(map[string]map[any]*Op)
		}
		ops = make(map[any]*Op)
		tx.writes[op.Table] = ops
	}
	if prev, ok := ops[op.Key]; ok && prev.Kind == OpInsert && op.Kind == OpUpdate {
		op.Kind = OpInsert // op is this call's own buffer entry
	}
	ops[op.Key] = op
}

// Scan iterates rows in primary-key-sorted order. fn returns false to stop
// early. Uncommitted writes of this transaction are visible.
func (tx *Tx) Scan(tableName string, fn func(Row) bool) error {
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	keys := make([]any, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	for k, op := range tx.writes[tableName] {
		if _, exists := t.rows[k]; !exists && op.Kind == OpInsert {
			keys = append(keys, k)
		}
	}
	sortKeys(keys)
	for _, k := range keys {
		row := tx.lookup(t, k)
		if row == nil {
			continue
		}
		if !fn(row.Clone()) {
			return nil
		}
	}
	return nil
}

func sortKeys(keys []any) { slices.SortFunc(keys, compareKeys) }

// compareKeys orders primary keys of one table (all strings or all int64).
func compareKeys(a, b any) int {
	switch a := a.(type) {
	case string:
		if b, ok := b.(string); ok {
			return cmp.Compare(a, b)
		}
	case int64:
		if b, ok := b.(int64); ok {
			return cmp.Compare(a, b)
		}
	}
	return 0
}

// commit applies the buffered writes and appends them to the WAL as one
// record. A transaction that wrote nothing logs nothing. Caller holds
// db.mu.
func (tx *Tx) commit() error {
	// The record lists the writes in (table, key) order, so a log is a
	// pure function of the committed transactions.
	rec := LogRecord{TxID: tx.id}
	n := 0
	for _, ops := range tx.writes {
		n += len(ops)
	}
	if n > 0 {
		rec.Ops = make([]Op, 0, n)
		for _, ops := range tx.writes {
			for _, op := range ops {
				rec.Ops = append(rec.Ops, *op)
			}
		}
		slices.SortFunc(rec.Ops, func(a, b Op) int {
			if c := cmp.Compare(a.Table, b.Table); c != 0 {
				return c
			}
			return compareKeys(a.Key, b.Key)
		})
	}
	// Every table a write names exists (tables are never dropped), so
	// applying cannot fail.
	_ = tx.db.applyOps(rec.Ops)
	var err error
	if len(rec.Ops) > 0 {
		// The in-memory state is already updated; a durability failure
		// still counts as a commit and is surfaced to the committer.
		err = tx.db.appendRecord(rec)
	}
	tx.db.commits++
	return err
}

// Atomically runs fn as one transaction: a nil return commits its writes,
// an error discards them and is returned. It is the only way to run a
// transaction. Transactions are serial: db.mu is held from begin to commit
// or abort, so no two interleave and none needs locks or retries. fn must
// not call the DB except through tx, because the mutex is not reentrant:
// a nested Atomically, Stats or WALLen from inside fn deadlocks. tx must
// not outlive fn; once Atomically returns, every method of tx fails with
// ErrDone.
func (db *DB) Atomically(fn func(*Tx) error) error {
	db.mu.Lock()
	db.nextTx++
	tx := &Tx{db: db, id: db.nextTx}
	defer func() {
		tx.done = true // even when fn panics
		db.mu.Unlock()
	}()
	if err := fn(tx); err != nil {
		db.aborts++
		return err
	}
	return tx.commit()
}
