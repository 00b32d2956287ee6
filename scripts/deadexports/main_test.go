package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The fixture under testdata/tree holds one declaration per case the gate
// must judge; testdata/tree/db/db.go says which is which.
const fixture = "testdata/tree"

func keys(ds []decl) []string {
	var ks []string
	for _, d := range ds {
		ks = append(ks, d.key)
	}
	return ks
}

func TestScanFixture(t *testing.T) {
	// store/export_test.go exports a name to store's external tests, so
	// the scan fails unless they see the in-package test instance.
	res, err := scan(fixture)
	if err != nil {
		t.Fatal(err)
	}
	// DB.Reset shares its name with the live Counter.Reset, so a scan by
	// name passes it. Key.String (fmt.Stringer), Dur.MarshalJSON
	// (encoding/json.Marshaler) and DB.Lookup (store.Backend, declared in
	// another package) are reached only through an interface and must not
	// appear.
	if got, want := keys(res.dead), []string{"db.DB.Reset", "db.Limit", "db.orphan"}; !reflect.DeepEqual(got, want) {
		t.Errorf("dead = %q, want %q", got, want)
	}
	// Mirror's receiver and its blank store.Backend assertion are not
	// uses, so a type only a test constructs is reported; its Lookup is
	// reached through the interface.
	if got, want := keys(res.testOnly), []string{"db.Mirror", "db.OnlyTested"}; !reflect.DeepEqual(got, want) {
		t.Errorf("test-only = %q, want %q", got, want)
	}
	// Wire.ID (tagged), Outer.In (a.b.c = x), Guarded.n (&x.f),
	// Guarded.mu (x.mu.Lock()) and Pair's fields (positional literal)
	// are written and must not appear.
	if got, want := keys(res.unwritten), []string{"db.Opts.Unset"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unwritten = %q, want %q", got, want)
	}
	if got, want := keys(res.testWritten), []string{"db.Opts.Debug", "db.PoolConfig.Trace"}; !reflect.DeepEqual(got, want) {
		t.Errorf("test-written = %q, want %q", got, want)
	}
	// PoolConfig.Size is written only inside its package, by its defaults.
	// Workers is also written by app, Trace only by a test (listed above)
	// and queue is unexported; Opts.Name is written only inside db too,
	// but Opts is not a *Config or *Options type.
	if got, want := keys(res.selfWritten), []string{"db.PoolConfig.Size"}; !reflect.DeepEqual(got, want) {
		t.Errorf("self-written = %q, want %q", got, want)
	}
}

func TestRunFailsOnDeadAndReportsTestOnly(t *testing.T) {
	var out bytes.Buffer
	err := run(fixture, true, &out)
	if err == nil || !strings.Contains(err.Error(), "3 unused") || !strings.Contains(err.Error(), "1 unwritten") {
		t.Errorf("run error = %v, want 3 unused declarations and 1 unwritten field", err)
	}
	for _, key := range []string{"db.Mirror", "db.OnlyTested", "db.Opts.Debug", "db.PoolConfig.Size"} {
		if !strings.Contains(out.String(), key) {
			t.Errorf("-report output lacks %s:\n%s", key, out.String())
		}
	}
}
