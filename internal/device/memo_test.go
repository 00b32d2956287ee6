package device

import (
	"reflect"
	"testing"

	"mcommerce/internal/markup/markuptest"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

// TestLayoutMemo checks, over the storefront and the markup seed corpus
// under every markup content type, that a memoized layout equals a fresh
// one and that errors are not memoized; that browsers built per
// transaction share the station's memo; and that a caller editing a
// returned page does not change the next render.
func TestLayoutMemo(t *testing.T) {
	st := NewStation(simnet.NewNetwork(simnet.NewScheduler(1)), Nokia9290)
	memoized, edited := 0, 0
	for _, payload := range markuptest.Inputs(t) {
		// One payload under every type shares the memo, so a key that
		// left out the content type would hand one type's page to another.
		clear(st.layouts)
		laidOut := 0
		for _, ct := range []string{webserver.TypeWMLC, webserver.TypeWML, webserver.TypeCHTML, webserver.TypeHTML, ""} {
			want, wantErr := parsePage(payload, ct)
			for i := range 3 {
				// A new browser per layout, as a transaction builds one.
				got, err := NewBrowser(st, nil).layout(payload, ct)
				if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("layout %d of %s %q: got %+v (%v), fresh layout %+v (%v)", i, ct, payload, got, err, want, wantErr)
				}
				if got != nil && len(got.Links) > 0 {
					// The caller owns the page: rewriting and extending
					// its links must not reach the memo.
					got.Links[0] = "/edited"
					got.Links = append(got.Links, "/appended")
					got.Title = "edited"
					edited++
				}
			}
			if wantErr == nil {
				laidOut++
				memoized++
			}
			if len(st.layouts) != laidOut {
				t.Fatalf("%s %q: memo holds %d layouts, want %d", ct, payload, len(st.layouts), laidOut)
			}
		}
	}
	if memoized == 0 || edited == 0 {
		t.Errorf("%d inputs laid out without error, %d pages with links edited: want both", memoized, edited)
	}
}
