package database

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// errAbort is a test transaction's own error: returning it aborts.
var errAbort = errors.New("abort")

func accountsDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	if err := db.CreateTable("accounts", Schema{
		{Name: "id", Type: TypeString},
		{Name: "owner", Type: TypeString},
		{Name: "balance", Type: TypeInt},
	}, "id"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	return db
}

func mustInsert(t testing.TB, db *DB, table string, rows ...Row) {
	t.Helper()
	if err := db.Atomically(func(tx *Tx) error {
		for _, r := range rows {
			if err := tx.Insert(table, r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
}

// get reads one row in a transaction of its own.
func get(db *DB, table string, key any) (row Row, err error) {
	err = db.Atomically(func(tx *Tx) error {
		row, err = tx.Get(table, key)
		return err
	})
	return row, err
}

// scanIDs lists the "id" column of a table in scan order, in a transaction
// that first runs pre if it is not nil.
func scanIDs(t *testing.T, db *DB, table string, pre func(*Tx) error) []string {
	t.Helper()
	var ids []string
	if err := db.Atomically(func(tx *Tx) error {
		if pre != nil {
			if err := pre(tx); err != nil {
				return err
			}
		}
		return tx.Scan(table, func(r Row) bool {
			ids = append(ids, r["id"].(string))
			return true
		})
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return ids
}

// fullWAL copies the whole committed log.
func fullWAL(db *DB) []LogRecord { return db.WALRange(0, db.WALLen()) }

func TestInsertGetRoundTrip(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts", Row{"id": "a1", "owner": "ann", "balance": int64(100)})
	row, err := get(db, "accounts", "a1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if row["owner"] != "ann" || row["balance"] != int64(100) {
		t.Errorf("row = %v", row)
	}
}

func TestGetMissing(t *testing.T) {
	db := accountsDB(t)
	if _, err := get(db, "accounts", "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, err := get(db, "ghosts", "x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing table err = %v", err)
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts", Row{"id": "a1", "owner": "ann", "balance": int64(1)})
	err := db.Atomically(func(tx *Tx) error {
		return tx.Insert("accounts", Row{"id": "a1", "owner": "bob", "balance": int64(2)})
	})
	if !errors.Is(err, ErrExists) {
		t.Errorf("err = %v, want ErrExists", err)
	}
}

func TestSchemaValidation(t *testing.T) {
	db := accountsDB(t)
	cases := []Row{
		{"id": "a", "owner": "x"},                                         // missing column
		{"id": "a", "owner": "x", "balance": "not-int"},                   // wrong type
		{"id": "a", "owner": "x", "balance": int64(1), "extra": int64(1)}, // extra column
		{"id": int64(1), "owner": "x", "balance": int64(1)},               // wrong key type
	}
	for i, r := range cases {
		if err := db.Atomically(func(tx *Tx) error { return tx.Insert("accounts", r) }); !errors.Is(err, ErrType) {
			t.Errorf("case %d: err = %v, want ErrType", i, err)
		}
	}
}

func TestUpdateAndDelete(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts", Row{"id": "a1", "owner": "ann", "balance": int64(5)})

	if err := db.Atomically(func(tx *Tx) error {
		return tx.Update("accounts", Row{"id": "a1", "owner": "ann", "balance": int64(9)})
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := db.Atomically(func(tx *Tx) error {
		row, err := tx.Get("accounts", "a1")
		if err != nil || row["balance"] != int64(9) {
			return fmt.Errorf("after update: %v %v", row, err)
		}
		return tx.Delete("accounts", "a1")
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := get(db, "accounts", "a1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("after delete: %v", err)
	}
}

func TestUpdateMissingRow(t *testing.T) {
	db := accountsDB(t)
	err := db.Atomically(func(tx *Tx) error {
		return tx.Update("accounts", Row{"id": "ghost", "owner": "x", "balance": int64(1)})
	})
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	db := accountsDB(t)
	err := db.Atomically(func(tx *Tx) error {
		if err := tx.Insert("accounts", Row{"id": "a1", "owner": "ann", "balance": int64(1)}); err != nil {
			return err
		}
		return errAbort
	})
	if err != errAbort {
		t.Fatalf("Atomically = %v, want fn's own error", err)
	}
	if _, err := get(db, "accounts", "a1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("aborted insert visible: %v", err)
	}
	if n := db.WALLen(); n != 1 {
		t.Errorf("WAL holds %d records, want only the DDL", n)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	db := accountsDB(t)
	if err := db.Atomically(func(tx *Tx) error {
		if err := tx.Insert("accounts", Row{"id": "a1", "owner": "ann", "balance": int64(7)}); err != nil {
			return err
		}
		row, err := tx.Get("accounts", "a1")
		if err != nil || row["balance"] != int64(7) {
			return fmt.Errorf("own insert invisible: %v %v", row, err)
		}
		if err := tx.Delete("accounts", "a1"); err != nil {
			return err
		}
		if _, err := tx.Get("accounts", "a1"); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("own delete invisible: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUsingFinishedTx leaks a *Tx out of fn, from a committed and from an
// aborted transaction: once Atomically has returned, every method fails
// with ErrDone and touches neither the tables nor the WAL.
func TestUsingFinishedTx(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts", Row{"id": "a", "owner": "ann", "balance": int64(1)})
	for _, result := range []error{nil, errAbort} {
		var leaked *Tx
		if err := db.Atomically(func(tx *Tx) error {
			leaked = tx
			return result
		}); err != result {
			t.Fatalf("Atomically = %v, want %v", err, result)
		}
		dump, walLen := db.Dump(), db.WALLen()
		row := Row{"id": "b", "owner": "bob", "balance": int64(2)}
		if _, err := leaked.Get("accounts", "a"); !errors.Is(err, ErrDone) {
			t.Errorf("Get after return: %v", err)
		}
		if err := leaked.Insert("accounts", row); !errors.Is(err, ErrDone) {
			t.Errorf("Insert after return: %v", err)
		}
		if err := leaked.Update("accounts", Row{"id": "a", "owner": "ann", "balance": int64(9)}); !errors.Is(err, ErrDone) {
			t.Errorf("Update after return: %v", err)
		}
		if err := leaked.Delete("accounts", "a"); !errors.Is(err, ErrDone) {
			t.Errorf("Delete after return: %v", err)
		}
		if err := leaked.Scan("accounts", func(Row) bool { return true }); !errors.Is(err, ErrDone) {
			t.Errorf("Scan after return: %v", err)
		}
		if db.Dump() != dump || db.WALLen() != walLen {
			t.Errorf("a finished transaction changed the database:\n%s", db.Dump())
		}
	}
}

func TestScanSortedAndFiltered(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts",
		Row{"id": "c", "owner": "carol", "balance": int64(3)},
		Row{"id": "a", "owner": "ann", "balance": int64(1)},
		Row{"id": "b", "owner": "bob", "balance": int64(2)},
	)
	if ids := scanIDs(t, db, "accounts", nil); fmt.Sprint(ids) != "[a b c]" {
		t.Errorf("scan order = %v", ids)
	}
}

func TestScanSeesOwnWrites(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts",
		Row{"id": "a", "owner": "ann", "balance": int64(1)},
		Row{"id": "b", "owner": "bob", "balance": int64(2)},
	)
	ids := scanIDs(t, db, "accounts", func(tx *Tx) error {
		if err := tx.Insert("accounts", Row{"id": "c", "owner": "carol", "balance": int64(3)}); err != nil {
			return err
		}
		return tx.Delete("accounts", "a")
	})
	if fmt.Sprint(ids) != "[b c]" {
		t.Errorf("scan = %v, want [b c]", ids)
	}
}

func TestWALRecovery(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts",
		Row{"id": "a", "owner": "ann", "balance": int64(10)},
		Row{"id": "b", "owner": "bob", "balance": int64(20)},
	)
	// One more committed tx and one aborted tx.
	if err := db.Atomically(func(tx *Tx) error {
		return tx.Update("accounts", Row{"id": "a", "owner": "ann", "balance": int64(15)})
	}); err != nil {
		t.Fatalf("Atomically: %v", err)
	}
	if err := db.Atomically(func(tx *Tx) error {
		if err := tx.Insert("accounts", Row{"id": "z", "owner": "zed", "balance": int64(0)}); err != nil {
			return err
		}
		return errAbort // must NOT appear after recovery
	}); err != errAbort {
		t.Fatalf("Atomically = %v", err)
	}

	recovered := New()
	if err := recovered.ResetTo(fullWAL(db)); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	a, err := get(recovered, "accounts", "a")
	if err != nil || a["balance"] != int64(15) {
		t.Errorf("recovered a = %v %v", a, err)
	}
	if _, err := get(recovered, "accounts", "z"); !errors.Is(err, ErrNotFound) {
		t.Errorf("aborted tx leaked into WAL: %v", err)
	}
}

// TestConcurrentTransfersPreserveTotal is the classic serializability
// check: goroutines shuffle money between accounts; the sum is invariant.
// Every read-modify-write must commit first time, with no retry, and under
// -race the run checks that Atomically's mutex serialises the goroutines.
func TestConcurrentTransfersPreserveTotal(t *testing.T) {
	db := accountsDB(t)
	const nAcc = 8
	const perAcc = 1000
	for i := 0; i < nAcc; i++ {
		mustInsert(t, db, "accounts", Row{
			"id": fmt.Sprintf("a%d", i), "owner": "x", "balance": int64(perAcc),
		})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				from := fmt.Sprintf("a%d", (w+i)%nAcc)
				to := fmt.Sprintf("a%d", (w+i+1+w%3)%nAcc)
				if from == to {
					continue
				}
				err := db.Atomically(func(tx *Tx) error {
					f, err := tx.Get("accounts", from)
					if err != nil {
						return err
					}
					g, err := tx.Get("accounts", to)
					if err != nil {
						return err
					}
					fb, _ := f["balance"].(int64)
					gb, _ := g["balance"].(int64)
					f["balance"] = fb - 1
					g["balance"] = gb + 1
					if err := tx.Update("accounts", f); err != nil {
						return err
					}
					return tx.Update("accounts", g)
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	if err := db.Atomically(func(tx *Tx) error {
		return tx.Scan("accounts", func(r Row) bool {
			b, _ := r["balance"].(int64)
			total += b
			return true
		})
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if total != nAcc*perAcc {
		t.Errorf("total = %d, want %d", total, nAcc*perAcc)
	}
}

// Property: a random sequence of committed single-row operations matches a
// plain map oracle.
func TestOpsMatchOracleProperty(t *testing.T) {
	type opcode struct {
		Kind byte
		Key  uint8
		Val  int64
	}
	prop := func(ops []opcode) bool {
		db := New()
		if err := db.CreateTable("t", Schema{
			{Name: "k", Type: TypeString},
			{Name: "v", Type: TypeInt},
		}, "k"); err != nil {
			return false
		}
		oracle := map[string]int64{}
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op.Key%16)
			err := db.Atomically(func(tx *Tx) error {
				switch op.Kind % 3 {
				case 0: // upsert
					if _, exists := oracle[key]; exists {
						return tx.Update("t", Row{"k": key, "v": op.Val})
					}
					return tx.Insert("t", Row{"k": key, "v": op.Val})
				case 1: // delete if present
					if _, exists := oracle[key]; exists {
						return tx.Delete("t", key)
					}
					return nil
				default: // read
					r, err := tx.Get("t", key)
					want, exists := oracle[key]
					if !exists {
						if !errors.Is(err, ErrNotFound) {
							return fmt.Errorf("phantom row")
						}
						return nil
					}
					if err != nil {
						return err
					}
					if r["v"] != want {
						return fmt.Errorf("value mismatch")
					}
					return nil
				}
			})
			if err != nil {
				return false
			}
			switch op.Kind % 3 {
			case 0:
				oracle[key] = op.Val
			case 1:
				delete(oracle, key)
			}
		}
		// Final state comparison.
		got := map[string]int64{}
		if err := db.Atomically(func(tx *Tx) error {
			return tx.Scan("t", func(r Row) bool {
				got[r["k"].(string)] = r["v"].(int64)
				return true
			})
		}); err != nil {
			return false
		}
		if len(got) != len(oracle) {
			return false
		}
		for k, v := range oracle {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
