package db

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 1 {
		t.Fatal("OnlyTested")
	}
	if o := (Opts{Debug: true}); o.Unset != 0 {
		t.Fatal("Opts.Unset")
	}
	if c := (PoolConfig{Trace: true}); c.queue != 0 {
		t.Fatal("PoolConfig.queue")
	}
	if _, ok := (Mirror{"a": "1"}).Lookup("a"); !ok {
		t.Fatal("Mirror.Lookup")
	}
}
