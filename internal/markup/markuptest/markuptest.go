// Package markuptest supplies markup inputs to the tests of the steps
// that translate or lay out markup: the checked-in FuzzDecodeWMLC seed
// corpus of package markup and the storefront page the workloads serve.
package markuptest

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mcommerce/internal/markup"
)

// Storefront is the /shop page that workload.RegisterHandlers serves.
const Storefront = `<html><head><title>WidgetShop</title></head>
<body><h1>Catalog</h1><p>Buy <a href="/item">widgets</a> now.</p></body></html>`

// Inputs returns the storefront, then every FuzzDecodeWMLC seed corpus
// input in file-name order (WMLC decks that decode, and garbage that does
// not), each deck that decodes followed by its WML text.
func Inputs(t testing.TB) [][]byte {
	t.Helper()
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("markuptest: cannot locate the corpus")
	}
	dir := filepath.Join(filepath.Dir(self), "..", "testdata", "fuzz", "FuzzDecodeWMLC")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("markuptest: %v", err)
	}
	in := [][]byte{[]byte(Storefront)}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("markuptest: %v", err)
		}
		// A corpus file is a header line and one []byte("...") value.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("markuptest: %s: not a one-value corpus file", e.Name())
		}
		lit, ok := strings.CutPrefix(lines[1], "[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		data, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("markuptest: %s: bad value %q", e.Name(), lines[1])
		}
		in = append(in, []byte(data))
		if deck, err := markup.DecodeWMLC([]byte(data)); err == nil {
			in = append(in, []byte(deck.WML()))
		}
	}
	if len(in) == 1 {
		t.Fatal("markuptest: empty corpus")
	}
	return in
}
