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

// Travel is Table 1's "Travel management" row for the travel industry and
// ticket sales: itinerary search, seat-controlled booking and ticket
// issuance, all from a handheld.
type Travel struct{}

// NewTravel returns the travel-and-ticketing service.
func NewTravel() *Travel { return &Travel{} }

var _ Service = (*Travel)(nil)

// Category implements Service.
func (s *Travel) Category() string { return "Travel and ticketing" }

// Application implements Service.
func (s *Travel) Application() string { return "Travel management" }

// Clients implements Service.
func (s *Travel) Clients() string { return "Travel industry and ticket sales" }

// Travel API payloads.
type (
	// Itinerary is one bookable departure.
	Itinerary struct {
		ID      string `json:"id"`
		From    string `json:"from"`
		To      string `json:"to"`
		Departs string `json:"departs"`
		Seats   int64  `json:"seats"`
		PriceCp int64  `json:"priceCp"`
	}
	// BookRequest books one seat.
	BookRequest struct {
		Itinerary string `json:"itinerary"`
		Passenger string `json:"passenger"`
	}
	// Ticket is an issued reservation.
	Ticket struct {
		ID        string `json:"id"`
		Itinerary string `json:"itinerary"`
		Passenger string `json:"passenger"`
		PriceCp   int64  `json:"priceCp"`
	}
)

// Register implements Service.
func (s *Travel) Register(h *core.Host) error {
	if err := h.DB.CreateTable("itineraries", database.Schema{
		{Name: "id", Type: database.TypeString},
		{Name: "from", Type: database.TypeString},
		{Name: "to", Type: database.TypeString},
		{Name: "departs", Type: database.TypeString},
		{Name: "seats", Type: database.TypeInt},
		{Name: "price", Type: database.TypeInt},
	}, "id"); err != nil {
		return err
	}
	if err := h.DB.CreateTable("tickets", database.Schema{
		{Name: "id", Type: database.TypeString},
		{Name: "itinerary", Type: database.TypeString},
		{Name: "passenger", Type: database.TypeString},
		{Name: "price", Type: database.TypeInt},
	}, "id"); err != nil {
		return err
	}
	seed := []database.Row{
		{"id": "fl-100", "from": "GSO", "to": "ATL", "departs": "08:00", "seats": int64(2), "price": int64(12900)},
		{"id": "fl-200", "from": "ATL", "to": "GND", "departs": "11:30", "seats": int64(5), "price": int64(24900)},
		{"id": "fl-300", "from": "GSO", "to": "ORD", "departs": "09:15", "seats": int64(3), "price": int64(15900)},
	}
	if err := h.DB.Atomically(func(tx *database.Tx) error {
		for _, r := range seed {
			if err := tx.Insert("itineraries", r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	h.Server.Handle("/travel/search", func(r *webserver.Request) *webserver.Response {
		from, to := r.Query["from"], r.Query["to"]
		var out []Itinerary
		err := h.DB.Atomically(func(tx *database.Tx) error {
			return tx.Scan("itineraries", func(row database.Row) bool {
				it := itineraryView(row)
				if (from == "" || it.From == from) && (to == "" || it.To == to) && it.Seats > 0 {
					out = append(out, it)
				}
				return true
			})
		})
		if err != nil {
			return fail(500, "search: %v", err)
		}
		return respondJSON(out)
	})

	h.Server.Handle("/travel/book", func(r *webserver.Request) *webserver.Response {
		var req BookRequest
		if err := readJSON(r, &req); err != nil || req.Passenger == "" {
			return fail(400, "bad booking")
		}
		var ticket Ticket
		err := h.DB.Atomically(func(tx *database.Tx) error {
			it, err := tx.Get("itineraries", req.Itinerary)
			if err != nil {
				return err
			}
			seats, _ := it["seats"].(int64)
			if seats <= 0 {
				return fmt.Errorf("%w: sold out", ErrService)
			}
			it["seats"] = seats - 1
			if err := tx.Update("itineraries", it); err != nil {
				return err
			}
			price, _ := it["price"].(int64)
			ticket = Ticket{
				ID:        fmt.Sprintf("tkt-%s-%s", req.Itinerary, req.Passenger),
				Itinerary: req.Itinerary, Passenger: req.Passenger, PriceCp: price,
			}
			return tx.Insert("tickets", database.Row{
				"id": ticket.ID, "itinerary": ticket.Itinerary,
				"passenger": ticket.Passenger, "price": ticket.PriceCp,
			})
		})
		switch {
		case err == nil:
			return respondJSON(ticket)
		case errors.Is(err, database.ErrNotFound):
			return fail(404, "no itinerary %s", req.Itinerary)
		case errors.Is(err, database.ErrExists):
			return fail(409, "passenger already booked")
		case errors.Is(err, ErrService):
			return fail(409, "sold out")
		default:
			return fail(500, "book: %v", err)
		}
	})

	h.Server.Handle("/travel/ticket", func(r *webserver.Request) *webserver.Response {
		id := r.Query["id"]
		var ticket Ticket
		err := h.DB.Atomically(func(tx *database.Tx) error {
			row, err := tx.Get("tickets", id)
			if err != nil {
				return err
			}
			ticket = ticketView(row)
			return nil
		})
		if errors.Is(err, database.ErrNotFound) {
			return fail(404, "no ticket %s", id)
		}
		if err != nil {
			return fail(500, "ticket: %v", err)
		}
		return respondJSON(ticket)
	})
	return nil
}

func itineraryView(row database.Row) Itinerary {
	id, _ := row["id"].(string)
	from, _ := row["from"].(string)
	to, _ := row["to"].(string)
	departs, _ := row["departs"].(string)
	seats, _ := row["seats"].(int64)
	price, _ := row["price"].(int64)
	return Itinerary{ID: id, From: from, To: to, Departs: departs, Seats: seats, PriceCp: price}
}

func ticketView(row database.Row) Ticket {
	id, _ := row["id"].(string)
	it, _ := row["itinerary"].(string)
	p, _ := row["passenger"].(string)
	price, _ := row["price"].(int64)
	return Ticket{ID: id, Itinerary: it, Passenger: p, PriceCp: price}
}

// TravelClient books travel from a station.
type TravelClient struct {
	Fetcher device.Fetcher
	Origin  simnet.Addr
}

// Search lists itineraries with free seats matching the route.
func (c *TravelClient) Search(from, to string, done func([]Itinerary, error)) {
	get[[]Itinerary](c.Fetcher, c.Origin, "/travel/search?from="+from+"&to="+to, done)
}

// Book reserves a seat and issues a ticket.
func (c *TravelClient) Book(itinerary, passenger string, done func(Ticket, error)) {
	call(c.Fetcher, c.Origin, "/travel/book",
		BookRequest{Itinerary: itinerary, Passenger: passenger}, done)
}

// Ticket retrieves an issued ticket.
func (c *TravelClient) Ticket(id string, done func(Ticket, error)) {
	get[Ticket](c.Fetcher, c.Origin, "/travel/ticket?id="+id, done)
}
