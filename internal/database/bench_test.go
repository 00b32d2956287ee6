package database

import (
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
	tx := db.Begin()
	for i := 0; i < rows; i++ {
		if err := tx.Insert("t", Row{"k": fmt.Sprintf("k%06d", i), "v": int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
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
		tx := db.Begin()
		if _, err := tx.Get("t", fmt.Sprintf("k%06d", i%10000)); err != nil {
			b.Fatal(err)
		}
		tx.Abort()
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
		err := db.Atomically(0, func(tx *Tx) error {
			row, err := tx.GetForUpdate("t", key)
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
		tx := db.Begin()
		n := 0
		if err := tx.Scan("t", func(Row) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
		tx.Abort()
		if n != 1000 {
			b.Fatalf("scanned %d", n)
		}
	}
}

// BenchmarkRecovery measures WAL replay throughput.
func BenchmarkRecovery(b *testing.B) {
	db := benchDB(b, 5000)
	wal := db.WAL()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := New().ResetTo(wal); err != nil {
			b.Fatal(err)
		}
	}
}
