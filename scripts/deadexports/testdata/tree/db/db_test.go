package db

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 1 {
		t.Fatal("OnlyTested")
	}
	if o := (Opts{Debug: true}); o.Unset != 0 {
		t.Fatal("Opts.Unset")
	}
}
