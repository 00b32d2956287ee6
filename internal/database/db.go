package database

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
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
	// locks maps primary key -> lock state.
	locks map[any]*rowLock
}

type rowLock struct {
	exclusive uint64          // tx holding exclusive, 0 if none
	shared    map[uint64]bool // txs holding shared; nil until the first shared lock
}

// DB is the embedded database engine.
type DB struct {
	mu       sync.Mutex
	tables   map[string]*table
	nextTx   uint64
	wal      []LogRecord
	walSink  *WALWriter
	onCommit func(rec LogRecord, walLen int)

	// Stats
	commits, aborts, conflicts uint64
}

// New creates an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*table)}
}

// Stats reports cumulative commits, aborts and lock conflicts.
func (db *DB) Stats() (commits, aborts, conflicts uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.commits, db.aborts, db.conflicts
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
		locks:  make(map[any]*rowLock),
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

// Tables lists table names in sorted order.
func (db *DB) Tables() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WAL returns a copy of the committed write-ahead log. The records are
// shared with the tables: their rows are the committed rows themselves, so
// callers must treat them as immutable (see Row).
func (db *DB) WAL() []LogRecord {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]LogRecord, len(db.wal))
	copy(out, db.wal)
	return out
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
// directly (no locks — the caller is a replica with no local writers),
// the record is appended to the WAL and streamed to the durable sink.
// TxIDs advance so a replica promoted to primary continues the sequence.
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

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.nextTx++
	return &Tx{db: db, id: db.nextTx}
}

// Tx is a transaction: reads take shared locks, writes take exclusive
// locks, all released at Commit or Abort (strict 2PL). Lock conflicts fail
// immediately with ErrLocked (no-wait).
type Tx struct {
	db     *DB
	id     uint64
	done   bool
	locked []lockRef              // locks held, for release
	writes map[string]map[any]*Op // nil until the first write
}

type lockRef struct {
	t   *table
	key any
}

func (tx *Tx) table(name string) (*table, error) {
	t, ok := tx.db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: table %q", ErrNotFound, name)
	}
	return t, nil
}

// lock acquires a shared or exclusive lock, upgrading if needed.
func (tx *Tx) lock(t *table, key any, exclusive bool) error {
	l, ok := t.locks[key]
	if !ok {
		l = &rowLock{}
		t.locks[key] = l
	}
	switch {
	case l.exclusive == tx.id:
		return nil
	case l.exclusive != 0:
		tx.db.conflicts++
		return ErrLocked
	case exclusive:
		if len(l.shared) > 1 || (len(l.shared) == 1 && !l.shared[tx.id]) {
			tx.db.conflicts++
			return ErrLocked
		}
		delete(l.shared, tx.id)
		l.exclusive = tx.id
	default:
		if l.shared[tx.id] {
			return nil
		}
		if l.shared == nil {
			l.shared = make(map[uint64]bool)
		}
		l.shared[tx.id] = true
	}
	tx.locked = append(tx.locked, lockRef{t: t, key: key})
	return nil
}

// Get returns a copy of a row by primary key, taking a shared lock. A
// write earlier in the same transaction is visible.
func (tx *Tx) Get(tableName string, key any) (Row, error) {
	return tx.get(tableName, key, false)
}

// GetForUpdate is Get with an exclusive lock, for read-modify-write
// transactions: taking the write lock up front avoids the shared-to-
// exclusive upgrade that two concurrent readers can never both win.
func (tx *Tx) GetForUpdate(tableName string, key any) (Row, error) {
	return tx.get(tableName, key, true)
}

func (tx *Tx) get(tableName string, key any, exclusive bool) (Row, error) {
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	if tx.done {
		return nil, ErrDone
	}
	t, err := tx.table(tableName)
	if err != nil {
		return nil, err
	}
	if err := tx.lock(t, key, exclusive); err != nil {
		return nil, err
	}
	if ops, ok := tx.writes[tableName]; ok {
		if op, ok := ops[key]; ok {
			if op.Kind == OpDelete {
				return nil, ErrNotFound
			}
			return op.Row.Clone(), nil
		}
	}
	r, ok := t.rows[key]
	if !ok {
		return nil, ErrNotFound
	}
	return r.Clone(), nil
}

// Insert adds a new row; the primary key must not exist.
func (tx *Tx) Insert(tableName string, row Row) error {
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	if tx.done {
		return ErrDone
	}
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	if err := t.schema.validate(row); err != nil {
		return err
	}
	key := row[t.key]
	if err := tx.lock(t, key, true); err != nil {
		return err
	}
	exists := false
	if _, ok := t.rows[key]; ok {
		exists = true
	}
	if ops, ok := tx.writes[tableName]; ok {
		if op, ok := ops[key]; ok {
			exists = op.Kind != OpDelete
		}
	}
	if exists {
		return fmt.Errorf("%w: key %v in %q", ErrExists, key, tableName)
	}
	tx.bufferWrite(tableName, &Op{Kind: OpInsert, Table: tableName, Key: key, Row: row.Clone()})
	return nil
}

// Update replaces an existing row (matched by the row's primary key).
func (tx *Tx) Update(tableName string, row Row) error {
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	if tx.done {
		return ErrDone
	}
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	if err := t.schema.validate(row); err != nil {
		return err
	}
	key := row[t.key]
	if err := tx.lock(t, key, true); err != nil {
		return err
	}
	if !tx.rowVisible(t, tableName, key) {
		return fmt.Errorf("%w: key %v in %q", ErrNotFound, key, tableName)
	}
	tx.bufferWrite(tableName, &Op{Kind: OpUpdate, Table: tableName, Key: key, Row: row.Clone()})
	return nil
}

// Delete removes a row by primary key.
func (tx *Tx) Delete(tableName string, key any) error {
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	if tx.done {
		return ErrDone
	}
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	if err := tx.lock(t, key, true); err != nil {
		return err
	}
	if !tx.rowVisible(t, tableName, key) {
		return fmt.Errorf("%w: key %v in %q", ErrNotFound, key, tableName)
	}
	tx.bufferWrite(tableName, &Op{Kind: OpDelete, Table: tableName, Key: key})
	return nil
}

// rowVisible reports whether the row exists from this tx's perspective.
// Caller holds db.mu.
func (tx *Tx) rowVisible(t *table, tableName string, key any) bool {
	if ops, ok := tx.writes[tableName]; ok {
		if op, ok := ops[key]; ok {
			return op.Kind != OpDelete
		}
	}
	_, ok := t.rows[key]
	return ok
}

func (tx *Tx) bufferWrite(tableName string, op *Op) {
	ops, ok := tx.writes[tableName]
	if !ok {
		if tx.writes == nil {
			tx.writes = make(map[string]map[any]*Op)
		}
		ops = make(map[any]*Op)
		tx.writes[tableName] = ops
	}
	if prev, ok := ops[op.Key]; ok {
		// Collapse: insert+update stays insert; insert+delete vanishes
		// only if the row did not pre-exist (keep delete for safety).
		if prev.Kind == OpInsert && op.Kind == OpUpdate {
			op.Kind = OpInsert // op is this call's own buffer entry
		}
	}
	ops[op.Key] = op
}

// Scan iterates rows in primary-key-sorted order, taking shared locks as it
// goes. fn returns false to stop early. Uncommitted writes of this
// transaction are visible.
func (tx *Tx) Scan(tableName string, fn func(Row) bool) error {
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	if tx.done {
		return ErrDone
	}
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	keys := make([]any, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	if ops, ok := tx.writes[tableName]; ok {
		for k, op := range ops {
			if op.Kind == OpInsert {
				if _, exists := t.rows[k]; !exists {
					keys = append(keys, k)
				}
			}
		}
	}
	sortKeys(keys)
	for _, k := range keys {
		if err := tx.lock(t, k, false); err != nil {
			return err
		}
		var row Row
		if ops, ok := tx.writes[tableName]; ok {
			if op, ok := ops[k]; ok {
				if op.Kind == OpDelete {
					continue
				}
				row = op.Row
			}
		}
		if row == nil {
			row = t.rows[k]
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

// Commit applies buffered writes atomically, appends the WAL record and
// releases all locks.
func (tx *Tx) Commit() error {
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	if tx.done {
		return ErrDone
	}
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
	if len(rec.Ops) > 0 {
		if err := tx.db.appendRecord(rec); err != nil {
			// The in-memory state is already updated; surface the
			// durability failure to the committer.
			tx.release()
			tx.db.commits++
			return err
		}
	}
	tx.release()
	tx.db.commits++
	return nil
}

// Abort discards buffered writes and releases all locks.
func (tx *Tx) Abort() {
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	if tx.done {
		return
	}
	tx.release()
	tx.db.aborts++
}

// release drops locks and marks the tx finished. Caller holds db.mu.
func (tx *Tx) release() {
	for _, ref := range tx.locked {
		l, ok := ref.t.locks[ref.key]
		if !ok {
			continue
		}
		if l.exclusive == tx.id {
			l.exclusive = 0
		}
		delete(l.shared, tx.id)
		if l.exclusive == 0 && len(l.shared) == 0 {
			delete(ref.t.locks, ref.key)
		}
	}
	tx.locked = nil
	tx.writes = nil
	tx.done = true
}

// Atomically runs fn in a transaction, retrying on ErrLocked up to retries
// times. fn's error aborts; nil commits.
func (db *DB) Atomically(retries int, fn func(*Tx) error) error {
	for attempt := 0; ; attempt++ {
		tx := db.Begin()
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		}
		if err == nil {
			return nil
		}
		tx.Abort()
		if attempt >= retries || !errors.Is(err, ErrLocked) {
			return err
		}
		// Yield so a competing transaction can finish before the retry
		// (no-wait locking livelocks otherwise under tight contention).
		runtime.Gosched()
	}
}
