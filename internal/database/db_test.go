package database

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

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
	tx := db.Begin()
	for _, r := range rows {
		if err := tx.Insert(table, r); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestInsertGetRoundTrip(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts", Row{"id": "a1", "owner": "ann", "balance": int64(100)})
	tx := db.Begin()
	defer tx.Abort()
	row, err := tx.Get("accounts", "a1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if row["owner"] != "ann" || row["balance"] != int64(100) {
		t.Errorf("row = %v", row)
	}
}

func TestGetMissing(t *testing.T) {
	db := accountsDB(t)
	tx := db.Begin()
	defer tx.Abort()
	if _, err := tx.Get("accounts", "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, err := tx.Get("ghosts", "x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing table err = %v", err)
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts", Row{"id": "a1", "owner": "ann", "balance": int64(1)})
	tx := db.Begin()
	defer tx.Abort()
	err := tx.Insert("accounts", Row{"id": "a1", "owner": "bob", "balance": int64(2)})
	if !errors.Is(err, ErrExists) {
		t.Errorf("err = %v, want ErrExists", err)
	}
}

func TestSchemaValidation(t *testing.T) {
	db := accountsDB(t)
	tx := db.Begin()
	defer tx.Abort()
	cases := []Row{
		{"id": "a", "owner": "x"},                                         // missing column
		{"id": "a", "owner": "x", "balance": "not-int"},                   // wrong type
		{"id": "a", "owner": "x", "balance": int64(1), "extra": int64(1)}, // extra column
		{"id": int64(1), "owner": "x", "balance": int64(1)},               // wrong key type
	}
	for i, r := range cases {
		if err := tx.Insert("accounts", r); !errors.Is(err, ErrType) {
			t.Errorf("case %d: err = %v, want ErrType", i, err)
		}
	}
}

func TestUpdateAndDelete(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts", Row{"id": "a1", "owner": "ann", "balance": int64(5)})

	tx := db.Begin()
	if err := tx.Update("accounts", Row{"id": "a1", "owner": "ann", "balance": int64(9)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	tx = db.Begin()
	row, err := tx.Get("accounts", "a1")
	if err != nil || row["balance"] != int64(9) {
		t.Fatalf("after update: %v %v", row, err)
	}
	if err := tx.Delete("accounts", "a1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	tx = db.Begin()
	defer tx.Abort()
	if _, err := tx.Get("accounts", "a1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("after delete: %v", err)
	}
}

func TestUpdateMissingRow(t *testing.T) {
	db := accountsDB(t)
	tx := db.Begin()
	defer tx.Abort()
	err := tx.Update("accounts", Row{"id": "ghost", "owner": "x", "balance": int64(1)})
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	db := accountsDB(t)
	tx := db.Begin()
	if err := tx.Insert("accounts", Row{"id": "a1", "owner": "ann", "balance": int64(1)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	tx.Abort()
	tx2 := db.Begin()
	defer tx2.Abort()
	if _, err := tx2.Get("accounts", "a1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("aborted insert visible: %v", err)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	db := accountsDB(t)
	tx := db.Begin()
	defer tx.Abort()
	if err := tx.Insert("accounts", Row{"id": "a1", "owner": "ann", "balance": int64(7)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	row, err := tx.Get("accounts", "a1")
	if err != nil || row["balance"] != int64(7) {
		t.Fatalf("own insert invisible: %v %v", row, err)
	}
	if err := tx.Delete("accounts", "a1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := tx.Get("accounts", "a1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("own delete invisible: %v", err)
	}
}

func TestUsingFinishedTx(t *testing.T) {
	db := accountsDB(t)
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Errorf("double commit: %v", err)
	}
	if _, err := tx.Get("accounts", "x"); !errors.Is(err, ErrDone) {
		t.Errorf("get after commit: %v", err)
	}
}

func TestWriteWriteConflictNoWait(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts", Row{"id": "a1", "owner": "ann", "balance": int64(1)})
	tx1 := db.Begin()
	tx2 := db.Begin()
	defer tx1.Abort()
	defer tx2.Abort()
	if err := tx1.Update("accounts", Row{"id": "a1", "owner": "ann", "balance": int64(2)}); err != nil {
		t.Fatalf("tx1 update: %v", err)
	}
	if err := tx2.Update("accounts", Row{"id": "a1", "owner": "ann", "balance": int64(3)}); !errors.Is(err, ErrLocked) {
		t.Errorf("tx2 update: %v, want ErrLocked", err)
	}
	// Readers are also blocked by the exclusive lock.
	if _, err := tx2.Get("accounts", "a1"); !errors.Is(err, ErrLocked) {
		t.Errorf("tx2 get: %v, want ErrLocked", err)
	}
}

func TestSharedReadsThenUpgrade(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts", Row{"id": "a1", "owner": "ann", "balance": int64(1)})
	tx1 := db.Begin()
	tx2 := db.Begin()
	defer tx1.Abort()
	defer tx2.Abort()
	if _, err := tx1.Get("accounts", "a1"); err != nil {
		t.Fatalf("tx1 get: %v", err)
	}
	if _, err := tx2.Get("accounts", "a1"); err != nil {
		t.Fatalf("tx2 get (shared): %v", err)
	}
	// Upgrade with another reader present must fail...
	if err := tx1.Delete("accounts", "a1"); !errors.Is(err, ErrLocked) {
		t.Errorf("upgrade with reader: %v, want ErrLocked", err)
	}
	tx2.Abort()
	// ...and succeed once the reader is gone.
	if err := tx1.Delete("accounts", "a1"); err != nil {
		t.Errorf("upgrade after release: %v", err)
	}
}

func TestScanSortedAndFiltered(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts",
		Row{"id": "c", "owner": "carol", "balance": int64(3)},
		Row{"id": "a", "owner": "ann", "balance": int64(1)},
		Row{"id": "b", "owner": "bob", "balance": int64(2)},
	)
	tx := db.Begin()
	defer tx.Abort()
	var ids []string
	if err := tx.Scan("accounts", func(r Row) bool {
		id, ok := r["id"].(string)
		if !ok {
			t.Fatal("id not a string")
		}
		ids = append(ids, id)
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if fmt.Sprint(ids) != "[a b c]" {
		t.Errorf("scan order = %v", ids)
	}
}

func TestScanSeesOwnWrites(t *testing.T) {
	db := accountsDB(t)
	mustInsert(t, db, "accounts",
		Row{"id": "a", "owner": "ann", "balance": int64(1)},
		Row{"id": "b", "owner": "bob", "balance": int64(2)},
	)
	tx := db.Begin()
	defer tx.Abort()
	if err := tx.Insert("accounts", Row{"id": "c", "owner": "carol", "balance": int64(3)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := tx.Delete("accounts", "a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	var ids []string
	if err := tx.Scan("accounts", func(r Row) bool {
		ids = append(ids, r["id"].(string))
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
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
	if err := db.Atomically(0, func(tx *Tx) error {
		return tx.Update("accounts", Row{"id": "a", "owner": "ann", "balance": int64(15)})
	}); err != nil {
		t.Fatalf("Atomically: %v", err)
	}
	tx := db.Begin()
	if err := tx.Insert("accounts", Row{"id": "z", "owner": "zed", "balance": int64(0)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	tx.Abort() // must NOT appear after recovery

	recovered := New()
	if err := recovered.ResetTo(db.WAL()); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	rtx := recovered.Begin()
	defer rtx.Abort()
	a, err := rtx.Get("accounts", "a")
	if err != nil || a["balance"] != int64(15) {
		t.Errorf("recovered a = %v %v", a, err)
	}
	if _, err := rtx.Get("accounts", "z"); !errors.Is(err, ErrNotFound) {
		t.Errorf("aborted tx leaked into WAL: %v", err)
	}
}

// TestConcurrentTransfersPreserveTotal is the classic serializability
// check: goroutines shuffle money between accounts; the sum is invariant.
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
				err := db.Atomically(100000, func(tx *Tx) error {
					f, err := tx.GetForUpdate("accounts", from)
					if err != nil {
						return err
					}
					g, err := tx.GetForUpdate("accounts", to)
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
	tx := db.Begin()
	defer tx.Abort()
	if err := tx.Scan("accounts", func(r Row) bool {
		b, _ := r["balance"].(int64)
		total += b
		return true
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
			err := db.Atomically(0, func(tx *Tx) error {
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
		tx := db.Begin()
		defer tx.Abort()
		if err := tx.Scan("t", func(r Row) bool {
			got[r["k"].(string)] = r["v"].(int64)
			return true
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
