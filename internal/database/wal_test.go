package database

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// restore rebuilds a database from a WAL image the way a restarting
// replica does: ReadWALPrefix decodes the valid prefix and ResetTo replays
// it into a fresh database. The decode error (nil or ErrTruncatedWAL) is
// returned for the caller to check.
func restore(t *testing.T, image []byte) (*DB, error) {
	t.Helper()
	recs, _, err := ReadWALPrefix(image)
	db := New()
	if rerr := db.ResetTo(recs); rerr != nil {
		t.Fatalf("ResetTo: %v", rerr)
	}
	return db, err
}

func TestWALPersistAndRestoreFromDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	db := accountsDB(t)
	if _, err := db.PersistTo(f); err != nil {
		t.Fatalf("PersistTo: %v", err)
	}
	mustInsert(t, db, "accounts",
		Row{"id": "a", "owner": "ann", "balance": int64(10)},
		Row{"id": "b", "owner": "bob", "balance": int64(20)},
	)
	if err := db.Atomically(func(tx *Tx) error {
		return tx.Update("accounts", Row{"id": "a", "owner": "ann", "balance": int64(99)})
	}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := db.Atomically(func(tx *Tx) error {
		return tx.Delete("accounts", "b")
	}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": rebuild from the file alone.
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := restore(t, image)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	a, err := get(recovered, "accounts", "a")
	if err != nil || a["balance"] != int64(99) {
		t.Errorf("a = %v %v", a, err)
	}
	if _, err := get(recovered, "accounts", "b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted row resurrected: %v", err)
	}
}

func TestWALAttachCheckpointsExistingState(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts", Row{"id": "pre", "owner": "x", "balance": int64(1)})
	var buf bytes.Buffer
	if _, err := db.PersistTo(&buf); err != nil {
		t.Fatalf("PersistTo: %v", err)
	}
	// Nothing further committed: the buffer must already replay "pre".
	recovered, err := restore(t, buf.Bytes())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if _, err := get(recovered, "accounts", "pre"); err != nil {
		t.Errorf("checkpointed row missing: %v", err)
	}
}

func TestWALDoubleAttachRejected(t *testing.T) {
	db := accountsDB(t)
	var a, b bytes.Buffer
	if _, err := db.PersistTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PersistTo(&b); err == nil {
		t.Error("second PersistTo accepted")
	}
}

// recordWriter is a WAL sink that remembers where each record ends, the
// way a replica's disk does.
type recordWriter struct {
	buf  []byte
	ends []int
}

func (w *recordWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	w.ends = append(w.ends, len(w.buf))
	return len(p), nil
}

// TestResetToKeepsWriterAndCutImageExtends is recovery without a rewrite:
// ResetTo writes nothing and keeps the writer, the caller cuts the image
// to the replayed prefix, and the next commit appends exactly one record
// that extends it into a valid image of the whole log.
func TestResetToKeepsWriterAndCutImageExtends(t *testing.T) {
	db := accountsDB(t)
	var w recordWriter
	if _, err := db.PersistTo(&w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustInsert(t, db, "accounts", Row{"id": fmt.Sprintf("k%d", i), "owner": "x", "balance": int64(i)})
	}
	keep := db.WALLen() - 2
	written := len(w.ends)
	if err := db.ResetTo(db.WALRange(0, keep)); err != nil {
		t.Fatal(err)
	}
	if len(w.ends) != written {
		t.Fatalf("ResetTo wrote %d records", len(w.ends)-written)
	}
	w.buf, w.ends = w.buf[:w.ends[keep-1]], w.ends[:keep]
	mustInsert(t, db, "accounts", Row{"id": "z", "owner": "zed", "balance": int64(9)})
	if len(w.ends) != keep+1 || db.WALLen() != keep+1 {
		t.Fatalf("after one commit: %d records on disk, log %d, want %d", len(w.ends), db.WALLen(), keep+1)
	}
	recs, validLen, err := ReadWALPrefix(w.buf)
	if err != nil || len(recs) != db.WALLen() || validLen != len(w.buf) {
		t.Fatalf("image: %d records (err %v, valid %d of %d bytes), log %d", len(recs), err, validLen, len(w.buf), db.WALLen())
	}
	restored, _ := restore(t, w.buf)
	if restored.Dump() != db.Dump() {
		t.Errorf("image restores to\n%s\nwant\n%s", restored.Dump(), db.Dump())
	}
}

func TestWALTornTailTolerated(t *testing.T) {
	db := accountsDB(t)
	var buf bytes.Buffer
	if _, err := db.PersistTo(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustInsert(t, db, "accounts", Row{"id": fmt.Sprintf("k%d", i), "owner": "x", "balance": int64(i)})
	}
	full := buf.Bytes()
	torn := full[:len(full)-7] // crash mid-record

	recovered, err := restore(t, torn)
	if !errors.Is(err, ErrTruncatedWAL) {
		t.Fatalf("err = %v, want ErrTruncatedWAL", err)
	}
	// All complete records survived; only the torn one is missing.
	n := 0
	if err := recovered.Atomically(func(tx *Tx) error {
		return tx.Scan("accounts", func(Row) bool { n++; return true })
	}); err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Errorf("recovered %d rows from torn log, want 9", n)
	}
}

// TestWALTruncationSweep tears the log at every byte offset and requires
// clean prefix recovery from each: no panic, no spurious rows, and the
// record count monotonically non-decreasing in the cut position. It also
// pins ReadWALPrefix's offset contract — re-reading exactly validLen bytes
// yields the same records with no truncation error, which is what lets a
// restart discard a torn tail once and for all.
func TestWALTruncationSweep(t *testing.T) {
	db := accountsDB(t)
	var buf bytes.Buffer
	if _, err := db.PersistTo(&buf); err != nil {
		t.Fatal(err)
	}
	const rows = 8
	for i := 0; i < rows; i++ {
		mustInsert(t, db, "accounts", Row{"id": fmt.Sprintf("k%d", i), "owner": "x", "balance": int64(i)})
	}
	full := buf.Bytes()
	prevRecs := -1
	for cut := 0; cut <= len(full); cut++ {
		torn := full[:cut]
		recs, validLen, err := ReadWALPrefix(torn)
		if err == nil && validLen != cut {
			// A clean decode means the cut landed exactly on a record
			// boundary, so the whole image is the valid prefix.
			t.Fatalf("cut %d: clean decode but validLen %d != cut", cut, validLen)
		}
		if err != nil && !errors.Is(err, ErrTruncatedWAL) {
			t.Fatalf("cut %d: err = %v, want ErrTruncatedWAL or nil", cut, err)
		}
		if len(recs) < prevRecs {
			t.Fatalf("cut %d: decoded %d records, previous cut decoded %d", cut, len(recs), prevRecs)
		}
		prevRecs = len(recs)
		if validLen > cut {
			t.Fatalf("cut %d: validLen %d exceeds image", cut, validLen)
		}
		// The valid prefix must re-read cleanly and identically.
		again, againLen, err := ReadWALPrefix(torn[:validLen])
		if err != nil {
			t.Fatalf("cut %d: re-read of valid prefix [:%d] failed: %v", cut, validLen, err)
		}
		if againLen != validLen || len(again) != len(recs) {
			t.Fatalf("cut %d: re-read got %d records / %d bytes, want %d / %d",
				cut, len(again), againLen, len(recs), validLen)
		}
		// And the truncated file must restore cleanly to a database holding
		// exactly those records.
		rec, err := restore(t, torn[:validLen])
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if got := rec.WALLen(); got != len(recs) {
			t.Fatalf("cut %d: recovered WALLen %d, want %d", cut, got, len(recs))
		}
	}
	// The full image decodes every record: schema DDL + one per row.
	recs, validLen, err := ReadWALPrefix(full)
	if err != nil || validLen != len(full) {
		t.Fatalf("full image: err=%v validLen=%d (len %d)", err, validLen, len(full))
	}
	if len(recs) != rows+1 {
		t.Fatalf("full image: %d records, want %d (DDL + %d rows)", len(recs), rows+1, rows)
	}
	final := New()
	if err := final.ResetTo(recs); err != nil {
		t.Fatal(err)
	}
	if final.Dump() != db.Dump() {
		t.Errorf("recovered dump differs from original:\n%s\nvs\n%s", final.Dump(), db.Dump())
	}
}

// failWriter fails after n bytes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWALWriteFailureSurfacesOnCommit(t *testing.T) {
	db := accountsDB(t)
	// The budget covers the DDL checkpoint written at attach but runs dry
	// during the commit stream.
	ww, err := db.PersistTo(&failWriter{n: 512})
	if err != nil {
		t.Fatalf("PersistTo: %v", err)
	}
	var commitErr error
	for i := 0; i < 50 && commitErr == nil; i++ {
		commitErr = db.Atomically(func(tx *Tx) error {
			return tx.Insert("accounts", Row{
				"id": fmt.Sprintf("k%d", i), "owner": "x", "balance": int64(i),
			})
		})
	}
	if commitErr == nil {
		t.Fatal("no commit surfaced the write failure")
	}
	if ww.Err() == nil {
		t.Error("WALWriter.Err is nil after failure")
	}
}

// kvSchema is the seven-column key-value row the mobile data tier stores
// (core.KVTable): every column type but float appears.
var kvSchema = Schema{
	{Name: "k", Type: TypeString},
	{Name: "v", Type: TypeBytes},
	{Name: "del", Type: TypeBool},
	{Name: "ver", Type: TypeInt},
	{Name: "wts", Type: TypeInt},
	{Name: "origin", Type: TypeString},
	{Name: "clock", Type: TypeInt},
}

func kvRow(key string, i int) Row {
	return Row{
		"k": key, "v": []byte(fmt.Sprintf("value-%d", i)), "del": i%5 == 0,
		"ver": int64(i), "wts": int64(i) * 1000, "origin": "dev7", "clock": int64(i),
	}
}

// mixedDB builds a database whose log holds every op kind, every column
// type, string and int keys, multi-op records, a nil []byte, a negative
// zero and a NaN.
func mixedDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	if err := db.CreateTable("kv", kvSchema, "k"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("prices", Schema{
		{Name: "sku", Type: TypeInt},
		{Name: "price", Type: TypeFloat},
	}, "sku"); err != nil {
		t.Fatal(err)
	}
	steps := []func(*Tx) error{
		func(tx *Tx) error {
			for i := range 3 {
				if err := tx.Insert("kv", kvRow(fmt.Sprintf("key%d", i), i)); err != nil {
					return err
				}
			}
			return tx.Insert("prices", Row{"sku": int64(-7), "price": 19.99})
		},
		func(tx *Tx) error { return tx.Update("kv", kvRow("key1", 42)) },
		func(tx *Tx) error {
			row := kvRow("key3", 3)
			row["v"] = []byte(nil)
			return tx.Insert("kv", row)
		},
		func(tx *Tx) error { return tx.Delete("kv", "key0") },
		func(tx *Tx) error {
			if err := tx.Insert("prices", Row{"sku": int64(1 << 40), "price": math.Copysign(0, -1)}); err != nil {
				return err
			}
			return tx.Insert("prices", Row{"sku": int64(2), "price": math.NaN()})
		},
		func(tx *Tx) error { return tx.Delete("prices", int64(-7)) },
	}
	for _, step := range steps {
		if err := db.Atomically(step); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// encodeRecords is the image a WALWriter writes for recs.
func encodeRecords(t testing.TB, recs []LogRecord) []byte {
	t.Helper()
	var ww WALWriter
	var out []byte
	for _, rec := range recs {
		var err error
		if out, err = ww.appendRecord(out, rec); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	return out
}

// sameRecords compares logs value by value: floats by their bits (so NaN
// equals itself), byte slices by content (nil equals empty).
func sameRecords(a, b []LogRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TxID != b[i].TxID || len(a[i].Ops) != len(b[i].Ops) {
			return false
		}
		for j := range a[i].Ops {
			x, y := &a[i].Ops[j], &b[i].Ops[j]
			if x.Kind != y.Kind || x.Table != y.Table || x.PK != y.PK ||
				!sameValue(x.Key, y.Key) || len(x.Row) != len(y.Row) || !slices.Equal(x.Schema, y.Schema) {
				return false
			}
			for name, v := range x.Row {
				w, ok := y.Row[name]
				if !ok || !sameValue(v, w) {
					return false
				}
			}
		}
	}
	return true
}

func sameValue(a, b any) bool {
	switch a := a.(type) {
	case float64:
		b, ok := b.(float64)
		return ok && math.Float64bits(a) == math.Float64bits(b)
	case []byte:
		b, ok := b.([]byte)
		return ok && bytes.Equal(a, b)
	}
	return a == b
}

func TestWALRoundTripsEveryType(t *testing.T) {
	db := mixedDB(t)
	var buf bytes.Buffer
	if _, err := db.PersistTo(&buf); err != nil {
		t.Fatal(err)
	}
	recs, validLen, err := ReadWALPrefix(buf.Bytes())
	if err != nil || validLen != buf.Len() {
		t.Fatalf("ReadWALPrefix: err=%v validLen=%d of %d", err, validLen, buf.Len())
	}
	if !sameRecords(recs, fullWAL(db)) {
		t.Fatalf("decoded records differ from the log:\n%+v\nvs\n%+v", recs, fullWAL(db))
	}
	restored := New()
	if err := restored.ResetTo(recs); err != nil {
		t.Fatal(err)
	}
	if restored.Dump() != db.Dump() {
		t.Errorf("restored dump differs:\n%s\nvs\n%s", restored.Dump(), db.Dump())
	}
	// The image is a pure function of the records: the restored database
	// checkpoints to the same bytes.
	var again bytes.Buffer
	if _, err := restored.PersistTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("re-encoding the decoded log changed the image")
	}
}

func TestWALAppendsAcrossWriters(t *testing.T) {
	a, b := accountsDB(t), mixedDB(t)
	mustInsert(t, a, "accounts", Row{"id": "a", "owner": "ann", "balance": int64(1)})
	var ia, ib bytes.Buffer
	if _, err := a.PersistTo(&ia); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PersistTo(&ib); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadWALPrefix(append(ia.Bytes(), ib.Bytes()...))
	if err != nil {
		t.Fatalf("concatenated images: %v", err)
	}
	if !sameRecords(recs, append(fullWAL(a), fullWAL(b)...)) {
		t.Error("concatenated images do not decode to both logs")
	}
}

// TestWALCorruptionEndsPrefix flips each byte of an image in turn: the
// checksum (or the length field) catches every flip, so decoding stops
// cleanly just before the damaged record.
func TestWALCorruptionEndsPrefix(t *testing.T) {
	db := mixedDB(t)
	var buf bytes.Buffer
	if _, err := db.PersistTo(&buf); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	want := fullWAL(db)
	// starts[i] is the offset of record i.
	var starts []int
	for off := 0; off < len(image); {
		starts = append(starts, off)
		off += walHeader + int(binary.LittleEndian.Uint32(image[off:]))
	}
	for pos := range image {
		rec := 0
		for rec+1 < len(starts) && starts[rec+1] <= pos {
			rec++
		}
		bad := bytes.Clone(image)
		bad[pos] ^= 0x5a
		recs, validLen, err := ReadWALPrefix(bad)
		if !errors.Is(err, ErrTruncatedWAL) {
			t.Fatalf("flip at %d: err = %v, want ErrTruncatedWAL", pos, err)
		}
		if validLen != starts[rec] || !sameRecords(recs, want[:rec]) {
			t.Fatalf("flip at %d (record %d): validLen %d, %d records; want %d, %d",
				pos, rec, validLen, len(recs), starts[rec], rec)
		}
	}
}

func TestCommittedRowIsSharedWithWAL(t *testing.T) {
	db := accountsDB(t)
	row := Row{"id": "a", "owner": "ann", "balance": int64(10)}
	mustInsert(t, db, "accounts", row)
	row["balance"] = int64(99) // the caller's map was cloned at Insert
	wal := fullWAL(db)
	logged := wal[len(wal)-1].Ops[0].Row
	stored := db.tables["accounts"].rows["a"]
	if reflect.ValueOf(logged).UnsafePointer() != reflect.ValueOf(stored).UnsafePointer() {
		t.Error("the table holds a copy of the WAL record's row")
	}
	got, err := get(db, "accounts", "a")
	if err != nil {
		t.Fatal(err)
	}
	got["balance"] = int64(7) // Get hands out a clone
	if stored["balance"] != int64(10) || logged["balance"] != int64(10) {
		t.Errorf("committed row changed: table %v, log %v", stored, logged)
	}
	replica := New()
	if err := replica.ResetTo(wal); err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(replica.tables["accounts"].rows["a"]).UnsafePointer() != reflect.ValueOf(logged).UnsafePointer() {
		t.Error("replaying the record copied its row")
	}
}

// TestReplicaSharesRowsAcrossGoroutines runs a primary and a replica on
// two goroutines, as on two shard lanes: the replica applies the primary's
// records, so both tables hold the same row maps, while both sides keep
// committing, reading and dumping. Under -race this checks that sharing a
// committed row never races.
func TestReplicaSharesRowsAcrossGoroutines(t *testing.T) {
	primary, replica := New(), New()
	if err := primary.CreateTable("kv", kvSchema, "k"); err != nil {
		t.Fatal(err)
	}
	const n = 200
	ship := make(chan LogRecord, 1)
	go func() {
		defer close(ship)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key%d", i%10)
			if err := primary.Atomically(func(tx *Tx) error {
				if err := tx.Update("kv", kvRow(key, i)); !errors.Is(err, ErrNotFound) {
					return err
				}
				return tx.Insert("kv", kvRow(key, i))
			}); err != nil {
				t.Error(err)
				return
			}
			recs := primary.WALRange(primary.WALLen()-1, primary.WALLen())
			if i == 0 {
				recs = fullWAL(primary) // the DDL record too
			}
			for _, rec := range recs {
				ship <- rec
			}
			_ = primary.Dump()
		}
	}()
	for rec := range ship {
		if err := replica.ApplyRecord(rec); err != nil {
			t.Fatal(err)
		}
		if err := replica.Atomically(func(tx *Tx) error {
			return tx.Scan("kv", func(r Row) bool { return r["k"] != "" })
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := replica.WALLen(); got != n+1 {
		t.Fatalf("replica applied %d records, want %d", got, n+1)
	}
	if replica.Dump() != primary.Dump() {
		t.Error("replica diverged from primary")
	}
}

// FuzzReadWALPrefix feeds arbitrary bytes to the WAL decoder, which
// crash recovery runs on whatever a torn disk image holds. It must never
// panic, the valid prefix must lie inside the input, any error must be
// ErrTruncatedWAL, re-reading exactly the valid prefix must give the same
// records cleanly, and decoding must be a fixpoint: the decoded records
// re-encode to an image that decodes to them again. Random bytes almost
// never pass a checksum, so each input is also checked framed as one
// record body under a valid header, which puts the body parser itself
// under the fuzzer. The checked-in corpus holds real images, torn cuts and
// flipped bytes.
func FuzzReadWALPrefix(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWALPrefix(t, data)
		framed := make([]byte, walHeader, walHeader+len(data))
		binary.LittleEndian.PutUint32(framed, uint32(len(data)))
		binary.LittleEndian.PutUint32(framed[4:], crc32.Checksum(data, castagnoli))
		checkWALPrefix(t, append(framed, data...))
	})
}

func checkWALPrefix(t *testing.T, data []byte) {
	recs, validLen, err := ReadWALPrefix(data)
	if validLen < 0 || validLen > len(data) {
		t.Fatalf("validLen %d outside [0, %d]", validLen, len(data))
	}
	if err != nil && !errors.Is(err, ErrTruncatedWAL) {
		t.Fatalf("err = %v, want nil or ErrTruncatedWAL", err)
	}
	if err == nil && validLen != len(data) {
		t.Fatalf("clean decode of %d bytes stopped at %d", len(data), validLen)
	}
	again, againLen, err := ReadWALPrefix(data[:validLen])
	if err != nil || againLen != validLen || !sameRecords(again, recs) {
		t.Fatalf("re-reading the valid prefix [:%d]: %d records, %d bytes, err %v; want %d records",
			validLen, len(again), againLen, err, len(recs))
	}
	image := encodeRecords(t, recs)
	fix, fixLen, err := ReadWALPrefix(image)
	if err != nil || fixLen != len(image) || !sameRecords(fix, recs) {
		t.Fatalf("re-encoded records do not decode to themselves: err %v, %d of %d bytes", err, fixLen, len(image))
	}
}
