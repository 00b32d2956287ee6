package apps

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/device"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

// Traffic is Table 1's "global positioning, directions, and traffic
// advisories" row for the transportation and auto industries: advisories
// live on a grid of map cells; directions are computed cell-to-cell,
// routing around high-severity congestion.
type Traffic struct {
	// GridCell is the advisory cell edge length in meters (default 1000).
	GridCell float64
}

// NewTraffic returns the traffic-advisory service.
func NewTraffic() *Traffic { return &Traffic{GridCell: 1000} }

var _ Service = (*Traffic)(nil)

// Category implements Service.
func (s *Traffic) Category() string { return "Traffic" }

// Application implements Service.
func (s *Traffic) Application() string {
	return "A global positioning, directions, and traffic advisories"
}

// Clients implements Service.
func (s *Traffic) Clients() string { return "Transportation and auto industries" }

// Traffic API payloads.
type (
	// Advisory is one congestion/incident report on a grid cell.
	Advisory struct {
		CellX    int    `json:"cellX"`
		CellY    int    `json:"cellY"`
		Severity int64  `json:"severity"` // 1 (light) .. 5 (blocked)
		Message  string `json:"message"`
	}
	// RouteReply is a sequence of grid waypoints from origin to
	// destination, avoiding severe cells.
	RouteReply struct {
		Waypoints [][2]int `json:"waypoints"`
		// Blocked reports that no route below the severity cutoff exists.
		Blocked bool `json:"blocked"`
	}
)

const severityCutoff = 4 // cells at or above are routed around

// Register implements Service.
func (s *Traffic) Register(h *core.Host) error {
	if err := h.DB.CreateTable("advisories", database.Schema{
		{Name: "id", Type: database.TypeString}, // "x,y"
		{Name: "x", Type: database.TypeInt},
		{Name: "y", Type: database.TypeInt},
		{Name: "severity", Type: database.TypeInt},
		{Name: "message", Type: database.TypeString},
	}, "id"); err != nil {
		return err
	}

	h.Server.Handle("/traffic/report", func(r *webserver.Request) *webserver.Response {
		var adv Advisory
		if err := readJSON(r, &adv); err != nil {
			return fail(400, "bad advisory")
		}
		if adv.Severity < 1 || adv.Severity > 5 {
			return fail(400, "severity out of range")
		}
		id := cellID(adv.CellX, adv.CellY)
		err := h.DB.Atomically(func(tx *database.Tx) error {
			row := database.Row{
				"id": id, "x": int64(adv.CellX), "y": int64(adv.CellY),
				"severity": adv.Severity, "message": adv.Message,
			}
			if _, err := tx.Get("advisories", id); errors.Is(err, database.ErrNotFound) {
				return tx.Insert("advisories", row)
			} else if err != nil {
				return err
			}
			return tx.Update("advisories", row)
		})
		if err != nil {
			return fail(500, "report: %v", err)
		}
		return respondJSON(adv)
	})

	h.Server.Handle("/traffic/advisories", func(r *webserver.Request) *webserver.Response {
		cx, _ := strconv.Atoi(r.Query["x"])
		cy, _ := strconv.Atoi(r.Query["y"])
		radius, err := strconv.Atoi(r.Query["radius"])
		if err != nil || radius < 0 {
			radius = 2
		}
		var out []Advisory
		dberr := h.DB.Atomically(func(tx *database.Tx) error {
			return tx.Scan("advisories", func(row database.Row) bool {
				a := advisoryView(row)
				if abs(a.CellX-cx) <= radius && abs(a.CellY-cy) <= radius {
					out = append(out, a)
				}
				return true
			})
		})
		if dberr != nil {
			return fail(500, "advisories: %v", dberr)
		}
		return respondJSON(out)
	})

	h.Server.Handle("/traffic/route", func(r *webserver.Request) *webserver.Response {
		fx, _ := strconv.Atoi(r.Query["fromX"])
		fy, _ := strconv.Atoi(r.Query["fromY"])
		tx_, _ := strconv.Atoi(r.Query["toX"])
		ty, _ := strconv.Atoi(r.Query["toY"])
		blockedCells := map[[2]int]bool{}
		dberr := h.DB.Atomically(func(tx *database.Tx) error {
			return tx.Scan("advisories", func(row database.Row) bool {
				a := advisoryView(row)
				if a.Severity >= severityCutoff {
					blockedCells[[2]int{a.CellX, a.CellY}] = true
				}
				return true
			})
		})
		if dberr != nil {
			return fail(500, "route: %v", dberr)
		}
		wp, ok := gridRoute([2]int{fx, fy}, [2]int{tx_, ty}, blockedCells, 64)
		return respondJSON(RouteReply{Waypoints: wp, Blocked: !ok})
	})
	return nil
}

func cellID(x, y int) string { return fmt.Sprintf("%d,%d", x, y) }

func advisoryView(row database.Row) Advisory {
	x, _ := row["x"].(int64)
	y, _ := row["y"].(int64)
	sev, _ := row["severity"].(int64)
	msg, _ := row["message"].(string)
	return Advisory{CellX: int(x), CellY: int(y), Severity: sev, Message: msg}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// gridRoute finds a shortest 4-connected path from a to b avoiding blocked
// cells, searching within a bound-by-bound box padded by `pad` cells.
// It returns (path, true) or (nil, false) when no route exists.
func gridRoute(a, b [2]int, blocked map[[2]int]bool, pad int) ([][2]int, bool) {
	if blocked[a] || blocked[b] {
		return nil, false
	}
	minX := int(math.Min(float64(a[0]), float64(b[0]))) - pad
	maxX := int(math.Max(float64(a[0]), float64(b[0]))) + pad
	minY := int(math.Min(float64(a[1]), float64(b[1]))) - pad
	maxY := int(math.Max(float64(a[1]), float64(b[1]))) + pad

	type qe struct{ p [2]int }
	prev := map[[2]int][2]int{a: a}
	queue := []qe{{p: a}}
	for len(queue) > 0 {
		cur := queue[0].p
		queue = queue[1:]
		if cur == b {
			// Reconstruct.
			var path [][2]int
			for p := b; ; p = prev[p] {
				path = append([][2]int{p}, path...)
				if p == a {
					return path, true
				}
			}
		}
		for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			n := [2]int{cur[0] + d[0], cur[1] + d[1]}
			if n[0] < minX || n[0] > maxX || n[1] < minY || n[1] > maxY {
				continue
			}
			if blocked[n] {
				continue
			}
			if _, seen := prev[n]; seen {
				continue
			}
			prev[n] = cur
			queue = append(queue, qe{p: n})
		}
	}
	return nil, false
}

// TrafficClient reports and queries advisories from a vehicle's station.
type TrafficClient struct {
	Fetcher device.Fetcher
	Origin  simnet.Addr
}

// Report files an advisory for a cell.
func (c *TrafficClient) Report(a Advisory, done func(Advisory, error)) {
	call(c.Fetcher, c.Origin, "/traffic/report", a, done)
}

// Advisories lists advisories within radius cells of (x, y).
func (c *TrafficClient) Advisories(x, y, radius int, done func([]Advisory, error)) {
	path := fmt.Sprintf("/traffic/advisories?x=%d&y=%d&radius=%d", x, y, radius)
	get[[]Advisory](c.Fetcher, c.Origin, path, done)
}

// Route asks for directions between two cells.
func (c *TrafficClient) Route(fromX, fromY, toX, toY int, done func(RouteReply, error)) {
	path := fmt.Sprintf("/traffic/route?fromX=%d&fromY=%d&toX=%d&toY=%d", fromX, fromY, toX, toY)
	get[RouteReply](c.Fetcher, c.Origin, path, done)
}
