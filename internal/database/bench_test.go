package database

import (
	"bytes"
	"fmt"
	"testing"
)

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := New()
	if err := db.CreateTable("t", Schema{
		{Name: "k", Type: TypeString},
		{Name: "v", Type: TypeInt},
	}, "k"); err != nil {
		b.Fatal(err)
	}
	if err := db.Atomically(func(tx *Tx) error {
		for i := 0; i < rows; i++ {
			if err := tx.Insert("t", Row{"k": fmt.Sprintf("k%06d", i), "v": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkTxGet measures point reads under transactions.
func BenchmarkTxGet(b *testing.B) {
	db := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := get(db, "t", fmt.Sprintf("k%06d", i%10000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxUpdateCommit measures read-modify-write transactions — the
// payment-service pattern.
func BenchmarkTxUpdateCommit(b *testing.B) {
	db := benchDB(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%06d", i%1000)
		err := db.Atomically(func(tx *Tx) error {
			row, err := tx.Get("t", key)
			if err != nil {
				return err
			}
			row["v"] = row["v"].(int64) + 1
			return tx.Update("t", row)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScan1000 measures a full table scan of 1000 rows.
func BenchmarkScan1000(b *testing.B) {
	db := benchDB(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := db.Atomically(func(tx *Tx) error {
			return tx.Scan("t", func(Row) bool { n++; return true })
		}); err != nil {
			b.Fatal(err)
		}
		if n != 1000 {
			b.Fatalf("scanned %d", n)
		}
	}
}

// BenchmarkRecovery measures WAL replay throughput.
func BenchmarkRecovery(b *testing.B) {
	db := benchDB(b, 5000)
	wal := fullWAL(db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := New().ResetTo(wal); err != nil {
			b.Fatal(err)
		}
	}
}

// walSink is an in-memory WAL device that keeps only the byte count, so
// a long benchmark does not grow a buffer.
type walSink struct{ n int }

func (s *walSink) Write(p []byte) (int, error) {
	s.n += len(p)
	return len(p), nil
}

// BenchmarkWALCommit measures the data tier's commit path: one
// seven-column key-value row updated in its own transaction and logged
// to a durable sink, the write a mobile sync session makes per accepted
// upload.
func BenchmarkWALCommit(b *testing.B) {
	db := New()
	if err := db.CreateTable("kv", kvSchema, "k"); err != nil {
		b.Fatal(err)
	}
	mustInsert(b, db, "kv", kvRow("key", 0))
	var sink walSink
	if _, err := db.PersistTo(&sink); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := Row{
			"k": "key", "v": []byte("value"), "del": false,
			"ver": int64(i), "wts": int64(i), "origin": "dev7", "clock": int64(i),
		}
		if err := db.Atomically(func(tx *Tx) error { return tx.Update("kv", row) }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sink.n)/float64(b.N), "B/record")
}

// BenchmarkWALReplay measures crash recovery: decoding a 1,000-record WAL
// image and replaying it into a fresh database.
func BenchmarkWALReplay(b *testing.B) {
	db := New()
	if err := db.CreateTable("kv", kvSchema, "k"); err != nil {
		b.Fatal(err)
	}
	for i := 1; i < 1000; i++ {
		row := kvRow(fmt.Sprintf("key%d", i%100), i)
		if err := db.Atomically(func(tx *Tx) error {
			if i <= 100 {
				return tx.Insert("kv", row)
			}
			return tx.Update("kv", row)
		}); err != nil {
			b.Fatal(err)
		}
	}
	var image bytes.Buffer
	if _, err := db.PersistTo(&image); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _, err := ReadWALPrefix(image.Bytes())
		if err != nil || len(recs) != 1000 {
			b.Fatalf("decoded %d records: %v", len(recs), err)
		}
		if err := New().ResetTo(recs); err != nil {
			b.Fatal(err)
		}
	}
}
