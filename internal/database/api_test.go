package database

import (
	"errors"
	"fmt"
	"testing"
)

func TestDBStatsAndTables(t *testing.T) {
	db := accountsDB(t)
	if err := db.CreateTable("orders", Schema{{Name: "id", Type: TypeString}}, "id"); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, db, "accounts", Row{"id": "a", "owner": "x", "balance": int64(1)})
	if err := db.Atomically(func(*Tx) error { return errAbort }); err != errAbort {
		t.Fatal(err)
	}
	if _, err := get(db, "accounts", "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if err := db.Atomically(func(*Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	commits, aborts, tables := db.Stats()
	if commits != 2 || aborts != 2 || tables != 2 {
		t.Errorf("stats = %d/%d/%d, want 2/2/2", commits, aborts, tables)
	}
	if n := db.WALLen(); n != 3 {
		t.Errorf("WAL holds %d records, want two DDL and one insert (a read-only commit logs nothing)", n)
	}
	if got := db.Dump(); got != "table accounts key=id rows=1\n  a: id=a owner=x balance=1\ntable orders key=id rows=0\n" {
		t.Errorf("Dump =\n%s", got)
	}
}

func TestColTypeStrings(t *testing.T) {
	for typ, want := range map[ColType]string{
		TypeString: "string", TypeInt: "int", TypeFloat: "float",
		TypeBool: "bool", TypeBytes: "bytes", ColType(0): "invalid",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

func TestIntKeyedTableScanOrder(t *testing.T) {
	db := New()
	if err := db.CreateTable("seq", Schema{
		{Name: "n", Type: TypeInt},
		{Name: "v", Type: TypeString},
	}, "n"); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, db, "seq", Row{"n": int64(30), "v": "x"}, Row{"n": int64(10), "v": "x"}, Row{"n": int64(20), "v": "x"})
	var order []int64
	if err := db.Atomically(func(tx *Tx) error {
		return tx.Scan("seq", func(r Row) bool {
			order = append(order, r["n"].(int64))
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[10 20 30]" {
		t.Errorf("int-key scan order = %v", order)
	}
}

func TestBytesColumnRoundTrip(t *testing.T) {
	db := New()
	if err := db.CreateTable("blobs", Schema{
		{Name: "k", Type: TypeString},
		{Name: "b", Type: TypeBytes},
	}, "k"); err != nil {
		t.Fatal(err)
	}
	orig := []byte{0, 1, 2, 255}
	if err := db.Atomically(func(tx *Tx) error {
		return tx.Insert("blobs", Row{"k": "x", "b": orig})
	}); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's slice must not affect the stored row.
	orig[0] = 99
	row, err := get(db, "blobs", "x")
	if err != nil {
		t.Fatal(err)
	}
	b := row["b"].([]byte)
	if b[0] != 0 {
		t.Errorf("stored blob aliased caller slice: %v", b)
	}
	// And mutating the returned copy must not affect storage either.
	b[1] = 99
	row2, _ := get(db, "blobs", "x")
	if row2["b"].([]byte)[1] != 1 {
		t.Error("returned blob aliased storage")
	}
}
