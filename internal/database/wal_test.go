package database

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	if err := db.Atomically(0, func(tx *Tx) error {
		return tx.Update("accounts", Row{"id": "a", "owner": "ann", "balance": int64(99)})
	}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := db.Atomically(0, func(tx *Tx) error {
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
	tx := recovered.Begin()
	defer tx.Abort()
	a, err := tx.Get("accounts", "a")
	if err != nil || a["balance"] != int64(99) {
		t.Errorf("a = %v %v", a, err)
	}
	if _, err := tx.Get("accounts", "b"); !errors.Is(err, ErrNotFound) {
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
	tx := recovered.Begin()
	defer tx.Abort()
	if _, err := tx.Get("accounts", "pre"); err != nil {
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
	tx := recovered.Begin()
	defer tx.Abort()
	n := 0
	if err := tx.Scan("accounts", func(Row) bool { n++; return true }); err != nil {
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
		commitErr = db.Atomically(0, func(tx *Tx) error {
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
