package mobiledb_test

import (
	"fmt"

	"mcommerce/internal/mobiledb"
)

// ExampleStore_BeginUpSync shows disconnected operation: a courier's
// handheld records scans offline and uploads them to the depot in one
// up-sync session when coverage returns.
func ExampleStore_BeginUpSync() {
	handheld := mobiledb.New("courier-7", 64<<10) // 64 KiB footprint
	depot := mobiledb.NewServer(mobiledb.PolicyLWW, mobiledb.NewMemBackend())

	// Out of coverage: scans land locally as tentative writes.
	_ = handheld.PutTentative("scan:pkg-1", []byte("picked up"))
	_ = handheld.PutTentative("scan:pkg-2", []byte("delivered"))
	fmt.Printf("%d scans pending\n", handheld.TentativeCount())

	// Coverage returns: one session uploads both, the depot resolves
	// them and the handheld installs the verdicts.
	req := handheld.BeginUpSync()
	resp, err := depot.Apply(req)
	if err != nil {
		fmt.Println(err)
		return
	}
	confirmed, overridden := handheld.FinishUpSync(resp)
	fmt.Printf("uploaded %d scans in %d B: %d confirmed, %d overridden\n",
		len(req.Writes), req.WireBytes(), confirmed, overridden)
	fmt.Printf("%d scans pending\n", handheld.TentativeCount())
	// Output:
	// 2 scans pending
	// uploaded 2 scans in 175 B: 2 confirmed, 0 overridden
	// 0 scans pending
}
