// Package db holds one declaration of each kind the gate must judge.
package db

import (
	"fmt"

	"fixture/store"
)

// DB satisfies store.Backend; nothing calls Lookup on a DB directly.
type DB struct{ Rows map[string]string }

// Lookup implements store.Backend.
func (d DB) Lookup(key string) (store.Row, bool) {
	v, ok := d.Rows[key]
	return store.Row{Val: v}, ok
}

// Reset is dead. Counter.Reset, which app calls, shares its name.
func (d *DB) Reset() { d.Rows = nil }

// Counter counts.
type Counter struct{ n int }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Key is printed; only fmt.Stringer reaches its String method.
type Key string

// String implements fmt.Stringer.
func (k Key) String() string { return "key:" + string(k) }

// Dur is marshalled; only encoding/json.Marshaler reaches MarshalJSON.
type Dur int64

// MarshalJSON implements encoding/json.Marshaler.
func (d Dur) MarshalJSON() ([]byte, error) { return []byte(fmt.Sprintf("\"%dms\"", d)), nil }

// Limit is an unused package-level var.
var Limit = 10

// orphan is an unused type.
type orphan struct{}

// OnlyTested has a caller only in a test file.
func OnlyTested() int { return 1 }
