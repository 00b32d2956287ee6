package apps

import (
	"errors"
	"fmt"

	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/device"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

// ERP is Table 1's "Resource management" row for all companies: a pool of
// enterprise resources that field staff allocate and release from mobile
// stations.
type ERP struct{}

// NewERP returns the enterprise-resource-planning service.
func NewERP() *ERP { return &ERP{} }

var _ Service = (*ERP)(nil)

// Category implements Service.
func (s *ERP) Category() string { return "Enterprise resource planning" }

// Application implements Service.
func (s *ERP) Application() string { return "Resource management" }

// Clients implements Service.
func (s *ERP) Clients() string { return "All companies" }

// ERP API payloads.
type (
	// Resource is one pooled resource type.
	Resource struct {
		ID        string `json:"id"`
		Kind      string `json:"kind"`
		Total     int64  `json:"total"`
		Allocated int64  `json:"allocated"`
	}
	// AllocRequest takes or returns units of a resource.
	AllocRequest struct {
		Resource string `json:"resource"`
		Units    int64  `json:"units"`
		Holder   string `json:"holder"`
	}
)

// Register implements Service.
func (s *ERP) Register(h *core.Host) error {
	if err := h.DB.CreateTable("resources", database.Schema{
		{Name: "id", Type: database.TypeString},
		{Name: "kind", Type: database.TypeString},
		{Name: "total", Type: database.TypeInt},
		{Name: "allocated", Type: database.TypeInt},
	}, "id"); err != nil {
		return err
	}
	seed := []database.Row{
		{"id": "truck", "kind": "vehicle", "total": int64(12), "allocated": int64(0)},
		{"id": "forklift", "kind": "vehicle", "total": int64(4), "allocated": int64(0)},
		{"id": "dock", "kind": "facility", "total": int64(6), "allocated": int64(0)},
	}
	if err := h.DB.Atomically(func(tx *database.Tx) error {
		for _, r := range seed {
			if err := tx.Insert("resources", r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	h.Server.Handle("/erp/resources", func(r *webserver.Request) *webserver.Response {
		var out []Resource
		err := h.DB.Atomically(func(tx *database.Tx) error {
			return tx.Scan("resources", func(row database.Row) bool {
				out = append(out, resourceView(row))
				return true
			})
		})
		if err != nil {
			return fail(500, "resources: %v", err)
		}
		return respondJSON(out)
	})

	h.Server.Handle("/erp/allocate", func(r *webserver.Request) *webserver.Response {
		return s.adjust(h, r, +1)
	})
	h.Server.Handle("/erp/release", func(r *webserver.Request) *webserver.Response {
		return s.adjust(h, r, -1)
	})
	return nil
}

// adjust moves units in or out of a resource's allocated count.
func (s *ERP) adjust(h *core.Host, r *webserver.Request, sign int64) *webserver.Response {
	var req AllocRequest
	if err := readJSON(r, &req); err != nil || req.Units <= 0 {
		return fail(400, "bad request")
	}
	var after Resource
	err := h.DB.Atomically(func(tx *database.Tx) error {
		row, err := tx.Get("resources", req.Resource)
		if err != nil {
			return err
		}
		alloc, _ := row["allocated"].(int64)
		total, _ := row["total"].(int64)
		next := alloc + sign*req.Units
		if next < 0 || next > total {
			return fmt.Errorf("%w: allocation out of range", ErrService)
		}
		row["allocated"] = next
		if err := tx.Update("resources", row); err != nil {
			return err
		}
		after = resourceView(row)
		return nil
	})
	switch {
	case err == nil:
		return respondJSON(after)
	case errors.Is(err, database.ErrNotFound):
		return fail(404, "no resource %s", req.Resource)
	case errors.Is(err, ErrService):
		return fail(409, "insufficient units")
	default:
		return fail(500, "adjust: %v", err)
	}
}

func resourceView(row database.Row) Resource {
	id, _ := row["id"].(string)
	kind, _ := row["kind"].(string)
	total, _ := row["total"].(int64)
	alloc, _ := row["allocated"].(int64)
	return Resource{ID: id, Kind: kind, Total: total, Allocated: alloc}
}

// ERPClient manages resources from a mobile station.
type ERPClient struct {
	Fetcher device.Fetcher
	Origin  simnet.Addr
}

// Resources lists the pool.
func (c *ERPClient) Resources(done func([]Resource, error)) {
	get[[]Resource](c.Fetcher, c.Origin, "/erp/resources", done)
}

// Allocate takes units of a resource.
func (c *ERPClient) Allocate(resource, holder string, units int64, done func(Resource, error)) {
	call(c.Fetcher, c.Origin, "/erp/allocate",
		AllocRequest{Resource: resource, Holder: holder, Units: units}, done)
}

// Release returns units of a resource.
func (c *ERPClient) Release(resource, holder string, units int64, done func(Resource, error)) {
	call(c.Fetcher, c.Origin, "/erp/release",
		AllocRequest{Resource: resource, Holder: holder, Units: units}, done)
}
