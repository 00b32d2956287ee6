// Package db holds one declaration of each kind the gate must judge.
package db

import (
	"fmt"
	"sync"

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

// Mirror satisfies store.Backend. Its receiver and the blank assertion
// name it, but only a test constructs one.
type Mirror map[string]string

var _ store.Backend = Mirror(nil)

// Lookup implements store.Backend.
func (m Mirror) Lookup(key string) (store.Row, bool) {
	v, ok := m[key]
	return store.Row{Val: v}, ok
}

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

// Opts has a field nothing writes (Unset) and one only a test writes
// (Debug).
type Opts struct {
	Name  string
	Unset int
	Debug bool
}

// PoolConfig is a knob set. Size is written only by its own defaults
// (a knob holding one value), Workers also by app, Trace only by a test,
// and queue is unexported.
type PoolConfig struct {
	Size, Workers int
	Trace         bool
	queue         int
}

// DefaultPoolConfig returns the defaults; a zero-value branch fills Size.
func DefaultPoolConfig() PoolConfig {
	c := PoolConfig{Workers: 1, queue: 8}
	if c.Size <= 0 {
		c.Size = 4
	}
	return c
}

// Wire is filled by encoding/json: the tag counts as a write.
type Wire struct {
	ID int `json:"id"`
}

// Outer.In is written only through a selector chain (a.b.c = x).
type Outer struct{ In Inner }

// Inner is reached through Outer.
type Inner struct{ Depth int }

// Guarded's mu is written only by a pointer-method call (x.mu.Lock())
// and n only through its address (&x.n).
type Guarded struct {
	mu sync.Mutex
	n  int
}

// Pair is built only by a positional literal.
type Pair struct{ K, V string }

// Fields writes each field of the field-write cases once.
func Fields() (Opts, Wire, Outer, Pair) {
	var o Outer
	o.In.Depth = 3
	g := &Guarded{}
	g.mu.Lock()
	p := &g.n
	*p = 1
	g.mu.Unlock()
	return Opts{Name: "x"}, Wire{}, o, Pair{"k", "v"}
}
