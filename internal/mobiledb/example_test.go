package mobiledb_test

import (
	"fmt"

	"mcommerce/internal/mobiledb"
)

// ExampleStore_SyncWith shows disconnected operation: a courier's handheld
// records scans offline and reconciles with the depot when coverage
// returns.
func ExampleStore_SyncWith() {
	handheld := mobiledb.New("courier-7", 64<<10) // 64 KiB footprint
	depot := mobiledb.New("depot", 0)

	// Out of coverage: scans land locally.
	_ = handheld.Put("scan:pkg-1", []byte("picked up"))
	_ = handheld.Put("scan:pkg-2", []byte("delivered"))

	// Coverage returns: one sync session reconciles both replicas.
	sent, received := handheld.SyncWith(depot)
	fmt.Printf("sync moved %d entries up, %d down\n", sent, received)

	fmt.Printf("depot holds %d scans\n", depot.Len())
	// Output:
	// sync moved 2 entries up, 0 down
	// depot holds 2 scans
}
