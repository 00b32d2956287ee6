package store_test

import (
	"testing"

	"fixture/store"
)

func TestBackendOf(t *testing.T) {
	if store.BackendOf(store.New(nil)) != nil {
		t.Fatal("BackendOf")
	}
}
