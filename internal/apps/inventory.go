package apps

import (
	"errors"
	"fmt"
	"math"

	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/device"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

// Inventory is Table 1's "Product tracking and dispatching" row for
// delivery services and transportation — the paper's motivating example of
// a task "not feasible for electronic commerce" that mobility enables.
//
// Couriers report package positions from the field; dispatch assigns the
// nearest free courier to a waiting package. The service also exposes a
// mobiledb up-sync endpoint so couriers can keep working while
// disconnected and upload their writes when coverage returns (Section 7's
// embedded databases).
type Inventory struct {
	// SyncHub resolves couriers' offline writes, last writer wins, into
	// Scans.
	SyncHub *mobiledb.Server
	// Scans holds the hub's confirmed rows, in memory.
	Scans *mobiledb.MemBackend
}

// NewInventory returns the tracking-and-dispatch service.
func NewInventory() *Inventory {
	scans := mobiledb.NewMemBackend()
	return &Inventory{SyncHub: mobiledb.NewServer(mobiledb.PolicyLWW, scans), Scans: scans}
}

var _ Service = (*Inventory)(nil)

// Category implements Service.
func (s *Inventory) Category() string { return "Inventory tracking and dispatching" }

// Application implements Service.
func (s *Inventory) Application() string { return "Product tracking and dispatching" }

// Clients implements Service.
func (s *Inventory) Clients() string { return "Delivery services and transportation" }

// Inventory API payloads.
type (
	// PackageView is a tracked package.
	PackageView struct {
		ID      string  `json:"id"`
		X       float64 `json:"x"`
		Y       float64 `json:"y"`
		Status  string  `json:"status"` // waiting, assigned, delivered
		Courier string  `json:"courier"`
	}
	// TrackUpdate reports a courier (and optionally a carried package)
	// position.
	TrackUpdate struct {
		Courier string  `json:"courier"`
		X       float64 `json:"x"`
		Y       float64 `json:"y"`
		Package string  `json:"package,omitempty"`
		// Delivered marks the carried package delivered at this point.
		Delivered bool `json:"delivered,omitempty"`
	}
	// DispatchRequest asks for the nearest free courier for a package.
	DispatchRequest struct {
		Package string `json:"package"`
	}
	// DispatchReply names the assignment.
	DispatchReply struct {
		Package  string  `json:"package"`
		Courier  string  `json:"courier"`
		Distance float64 `json:"distance"`
	}
)

// Register implements Service.
func (s *Inventory) Register(h *core.Host) error {
	if err := h.DB.CreateTable("packages", database.Schema{
		{Name: "id", Type: database.TypeString},
		{Name: "x", Type: database.TypeFloat},
		{Name: "y", Type: database.TypeFloat},
		{Name: "status", Type: database.TypeString},
		{Name: "courier", Type: database.TypeString},
	}, "id"); err != nil {
		return err
	}
	if err := h.DB.CreateTable("couriers", database.Schema{
		{Name: "id", Type: database.TypeString},
		{Name: "x", Type: database.TypeFloat},
		{Name: "y", Type: database.TypeFloat},
		{Name: "busy", Type: database.TypeBool},
	}, "id"); err != nil {
		return err
	}

	h.Server.Handle("/track/package", func(r *webserver.Request) *webserver.Response {
		var req struct {
			PackageView
		}
		if err := readJSON(r, &req); err != nil || req.ID == "" {
			return fail(400, "bad package")
		}
		err := h.DB.Atomically(func(tx *database.Tx) error {
			return tx.Insert("packages", database.Row{
				"id": req.ID, "x": req.X, "y": req.Y, "status": "waiting", "courier": "",
			})
		})
		if errors.Is(err, database.ErrExists) {
			return fail(409, "package exists")
		}
		if err != nil {
			return fail(500, "package: %v", err)
		}
		return respondJSON(req.PackageView)
	})

	h.Server.Handle("/track/update", func(r *webserver.Request) *webserver.Response {
		var req TrackUpdate
		if err := readJSON(r, &req); err != nil || req.Courier == "" {
			return fail(400, "bad update")
		}
		err := h.DB.Atomically(func(tx *database.Tx) error {
			row, err := tx.Get("couriers", req.Courier)
			if errors.Is(err, database.ErrNotFound) {
				row = database.Row{"id": req.Courier, "x": req.X, "y": req.Y, "busy": false}
				if err := tx.Insert("couriers", row); err != nil {
					return err
				}
			} else if err != nil {
				return err
			} else {
				row["x"], row["y"] = req.X, req.Y
				if req.Delivered {
					row["busy"] = false
				}
				if err := tx.Update("couriers", row); err != nil {
					return err
				}
			}
			if req.Package != "" {
				pkg, err := tx.Get("packages", req.Package)
				if err != nil {
					return err
				}
				pkg["x"], pkg["y"] = req.X, req.Y
				if req.Delivered {
					pkg["status"] = "delivered"
				}
				if err := tx.Update("packages", pkg); err != nil {
					return err
				}
			}
			return nil
		})
		if errors.Is(err, database.ErrNotFound) {
			return fail(404, "unknown package %s", req.Package)
		}
		if err != nil {
			return fail(500, "update: %v", err)
		}
		return respondJSON(map[string]bool{"ok": true})
	})

	h.Server.Handle("/track/where", func(r *webserver.Request) *webserver.Response {
		id := r.Query["id"]
		var view PackageView
		err := h.DB.Atomically(func(tx *database.Tx) error {
			row, err := tx.Get("packages", id)
			if err != nil {
				return err
			}
			view = packageView(row)
			return nil
		})
		if errors.Is(err, database.ErrNotFound) {
			return fail(404, "no package %s", id)
		}
		if err != nil {
			return fail(500, "where: %v", err)
		}
		return respondJSON(view)
	})

	h.Server.Handle("/track/dispatch", func(r *webserver.Request) *webserver.Response {
		var req DispatchRequest
		if err := readJSON(r, &req); err != nil {
			return fail(400, "bad dispatch")
		}
		var reply DispatchReply
		err := h.DB.Atomically(func(tx *database.Tx) error {
			pkg, err := tx.Get("packages", req.Package)
			if err != nil {
				return err
			}
			if st, _ := pkg["status"].(string); st != "waiting" {
				return fmt.Errorf("%w: package is %s", ErrService, st)
			}
			px, _ := pkg["x"].(float64)
			py, _ := pkg["y"].(float64)
			bestDist := math.Inf(1)
			var best database.Row
			if err := tx.Scan("couriers", func(row database.Row) bool {
				if busy, _ := row["busy"].(bool); busy {
					return true
				}
				cx, _ := row["x"].(float64)
				cy, _ := row["y"].(float64)
				d := math.Hypot(px-cx, py-cy)
				if d < bestDist {
					bestDist = d
					best = row
				}
				return true
			}); err != nil {
				return err
			}
			if best == nil {
				return fmt.Errorf("%w: no free courier", ErrService)
			}
			best["busy"] = true
			if err := tx.Update("couriers", best); err != nil {
				return err
			}
			courierID, _ := best["id"].(string)
			pkg["status"] = "assigned"
			pkg["courier"] = courierID
			if err := tx.Update("packages", pkg); err != nil {
				return err
			}
			reply = DispatchReply{Package: req.Package, Courier: courierID, Distance: bestDist}
			return nil
		})
		switch {
		case err == nil:
			return respondJSON(reply)
		case errors.Is(err, database.ErrNotFound):
			return fail(404, "no package %s", req.Package)
		case errors.Is(err, ErrService):
			return fail(409, "%v", err)
		default:
			return fail(500, "dispatch: %v", err)
		}
	})

	// Disconnected-operation sync: couriers POST a mobiledb UpSyncRequest
	// and get the hub's verdicts back.
	h.Server.Handle("/track/sync", func(r *webserver.Request) *webserver.Response {
		var req mobiledb.UpSyncRequest
		if err := readJSON(r, &req); err != nil {
			return fail(400, "bad sync request")
		}
		resp, err := s.SyncHub.Apply(&req)
		if err != nil {
			return fail(500, "sync: %v", err)
		}
		return respondJSON(resp)
	})
	return nil
}

func packageView(row database.Row) PackageView {
	id, _ := row["id"].(string)
	x, _ := row["x"].(float64)
	y, _ := row["y"].(float64)
	st, _ := row["status"].(string)
	courier, _ := row["courier"].(string)
	return PackageView{ID: id, X: x, Y: y, Status: st, Courier: courier}
}

// InventoryClient is the courier/dispatcher station client.
type InventoryClient struct {
	Fetcher device.Fetcher
	Origin  simnet.Addr
	// Local is the courier's on-device embedded database for disconnected
	// operation (optional).
	Local *mobiledb.Store
}

// NewPackage registers a package awaiting pickup.
func (c *InventoryClient) NewPackage(id string, x, y float64, done func(PackageView, error)) {
	call(c.Fetcher, c.Origin, "/track/package",
		PackageView{ID: id, X: x, Y: y}, done)
}

// ReportPosition sends a live position update.
func (c *InventoryClient) ReportPosition(u TrackUpdate, done func(error)) {
	call(c.Fetcher, c.Origin, "/track/update", u, func(_ map[string]bool, err error) { done(err) })
}

// Where looks a package up.
func (c *InventoryClient) Where(id string, done func(PackageView, error)) {
	get[PackageView](c.Fetcher, c.Origin, "/track/where?id="+id, done)
}

// Dispatch assigns the nearest free courier to a package.
func (c *InventoryClient) Dispatch(pkg string, done func(DispatchReply, error)) {
	call(c.Fetcher, c.Origin, "/track/dispatch", DispatchRequest{Package: pkg}, done)
}

// RecordOffline stores an observation in the courier's embedded database
// while out of coverage, as a tentative write for the next Sync.
func (c *InventoryClient) RecordOffline(key string, value []byte) error {
	if c.Local == nil {
		return fmt.Errorf("%w: no local store", ErrService)
	}
	return c.Local.PutTentative(key, value)
}

// Sync uploads the courier's tentative writes to the hub over the network
// and installs its verdicts. done reports the writes the hub confirmed.
func (c *InventoryClient) Sync(done func(confirmed int, err error)) {
	if c.Local == nil {
		done(0, fmt.Errorf("%w: no local store", ErrService))
		return
	}
	call(c.Fetcher, c.Origin, "/track/sync", c.Local.BeginUpSync(),
		func(resp mobiledb.UpSyncResponse, err error) {
			if err != nil {
				done(0, err)
				return
			}
			confirmed, _ := c.Local.FinishUpSync(&resp)
			done(confirmed, nil)
		})
}
