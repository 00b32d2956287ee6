package apps

import "testing"

// Every body is a verifiable prefix of the shared pattern whose capacity
// ends at its length, so appending to one body never writes into the
// pattern that later downloads are cut from.
func TestMediaBodySharedReadOnly(t *testing.T) {
	var m mediaPattern
	for _, size := range []int{64 << 10, 4 << 10, 900 << 10, 200 << 10, 0} {
		b := m.body(size)
		if len(b) != size || cap(b) != size || !VerifyMediaContent(b) {
			t.Fatalf("body(%d): len %d cap %d verified %v", size, len(b), cap(b), VerifyMediaContent(b))
		}
		_ = append(b, 0xff, 0xff)
	}
	if len(m) != 900<<10 || !VerifyMediaContent(m) {
		t.Errorf("pattern is %d bytes, verified %v; want the largest title, intact", len(m), VerifyMediaContent(m))
	}
}
