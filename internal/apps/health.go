package apps

import (
	"errors"

	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/device"
	"mcommerce/internal/security"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

// Health is Table 1's "Patient record accessing" row for hospitals and
// nursing homes. It is the authentication showcase (Section 8): staff log
// in with credentials, receive an expiring HMAC token from the host's
// token authority, and every record access is authorized against it.
type Health struct {
	// TokenTTL is the credential lifetime in virtual nanoseconds
	// (default 1 hour).
	TokenTTL int64
}

// NewHealth returns the patient-records service.
func NewHealth() *Health { return &Health{TokenTTL: int64(3600) * 1e9} }

var _ Service = (*Health)(nil)

// Category implements Service.
func (s *Health) Category() string { return "Health care" }

// Application implements Service.
func (s *Health) Application() string { return "Patient record accessing" }

// Clients implements Service.
func (s *Health) Clients() string { return "Hospitals and nursing homes" }

// Health API payloads.
type (
	// LoginRequest authenticates a staff member.
	LoginRequest struct {
		Staff  string `json:"staff"`
		Secret string `json:"secret"`
	}
	// LoginReply carries the bearer token.
	LoginReply struct {
		Token string `json:"token"`
	}
	// PatientRecord is one chart.
	PatientRecord struct {
		ID        string `json:"id"`
		Name      string `json:"name"`
		Ward      string `json:"ward"`
		Diagnosis string `json:"diagnosis"`
		Notes     string `json:"notes"`
	}
	// RecordUpdate appends a note to a chart.
	RecordUpdate struct {
		Token   string `json:"token"`
		Patient string `json:"patient"`
		Note    string `json:"note"`
	}
)

// Register implements Service.
func (s *Health) Register(h *core.Host) error {
	if err := h.DB.CreateTable("staff", database.Schema{
		{Name: "id", Type: database.TypeString},
		{Name: "secret", Type: database.TypeString},
	}, "id"); err != nil {
		return err
	}
	if err := h.DB.CreateTable("patients", database.Schema{
		{Name: "id", Type: database.TypeString},
		{Name: "name", Type: database.TypeString},
		{Name: "ward", Type: database.TypeString},
		{Name: "diagnosis", Type: database.TypeString},
		{Name: "notes", Type: database.TypeString},
	}, "id"); err != nil {
		return err
	}
	if err := h.DB.Atomically(func(tx *database.Tx) error {
		staff := []database.Row{
			{"id": "dr-yang", "secret": "rounds"},
			{"id": "nurse-okafor", "secret": "charts"},
		}
		for _, r := range staff {
			if err := tx.Insert("staff", r); err != nil {
				return err
			}
		}
		patients := []database.Row{
			{"id": "p-100", "name": "A. Okonkwo", "ward": "cardiology",
				"diagnosis": "arrhythmia", "notes": "admitted"},
			{"id": "p-101", "name": "B. Silva", "ward": "orthopedics",
				"diagnosis": "fracture", "notes": "cast fitted"},
		}
		for _, r := range patients {
			if err := tx.Insert("patients", r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	h.Server.Handle("/health/login", func(r *webserver.Request) *webserver.Response {
		var req LoginRequest
		if err := readJSON(r, &req); err != nil {
			return fail(400, "bad login")
		}
		var secret string
		err := h.DB.Atomically(func(tx *database.Tx) error {
			row, err := tx.Get("staff", req.Staff)
			if err != nil {
				return err
			}
			secret, _ = row["secret"].(string)
			return nil
		})
		if errors.Is(err, database.ErrNotFound) || (err == nil && secret != req.Secret) {
			return fail(401, "bad credentials")
		}
		if err != nil {
			return fail(500, "login: %v", err)
		}
		tok := h.Tokens.Issue("staff:"+req.Staff, h.Now()+s.TokenTTL)
		return respondJSON(LoginReply{Token: tok})
	})

	authorize := func(token string) *webserver.Response {
		if _, err := h.Tokens.Verify(token, h.Now()); err != nil {
			if errors.Is(err, security.ErrExpired) {
				return fail(401, "token expired")
			}
			return fail(401, "unauthorized")
		}
		return nil
	}

	h.Server.Handle("/health/record", func(r *webserver.Request) *webserver.Response {
		if resp := authorize(r.Query["token"]); resp != nil {
			return resp
		}
		id := r.Query["patient"]
		var rec PatientRecord
		err := h.DB.Atomically(func(tx *database.Tx) error {
			row, err := tx.Get("patients", id)
			if err != nil {
				return err
			}
			rec = recordView(row)
			return nil
		})
		if errors.Is(err, database.ErrNotFound) {
			return fail(404, "no patient %s", id)
		}
		if err != nil {
			return fail(500, "record: %v", err)
		}
		return respondJSON(rec)
	})

	h.Server.Handle("/health/note", func(r *webserver.Request) *webserver.Response {
		var req RecordUpdate
		if err := readJSON(r, &req); err != nil {
			return fail(400, "bad note")
		}
		if resp := authorize(req.Token); resp != nil {
			return resp
		}
		var rec PatientRecord
		err := h.DB.Atomically(func(tx *database.Tx) error {
			row, err := tx.Get("patients", req.Patient)
			if err != nil {
				return err
			}
			notes, _ := row["notes"].(string)
			row["notes"] = notes + "; " + req.Note
			if err := tx.Update("patients", row); err != nil {
				return err
			}
			rec = recordView(row)
			return nil
		})
		if errors.Is(err, database.ErrNotFound) {
			return fail(404, "no patient %s", req.Patient)
		}
		if err != nil {
			return fail(500, "note: %v", err)
		}
		return respondJSON(rec)
	})
	return nil
}

func recordView(row database.Row) PatientRecord {
	id, _ := row["id"].(string)
	name, _ := row["name"].(string)
	ward, _ := row["ward"].(string)
	diag, _ := row["diagnosis"].(string)
	notes, _ := row["notes"].(string)
	return PatientRecord{ID: id, Name: name, Ward: ward, Diagnosis: diag, Notes: notes}
}

// HealthClient accesses patient records from a station.
type HealthClient struct {
	Fetcher device.Fetcher
	Origin  simnet.Addr
	token   string
}

// Login authenticates and stores the bearer token for later calls.
func (c *HealthClient) Login(staff, secret string, done func(error)) {
	call(c.Fetcher, c.Origin, "/health/login", LoginRequest{Staff: staff, Secret: secret},
		func(rep LoginReply, err error) {
			if err == nil {
				c.token = rep.Token
			}
			done(err)
		})
}

// Record fetches a patient chart (requires Login first).
func (c *HealthClient) Record(patient string, done func(PatientRecord, error)) {
	get[PatientRecord](c.Fetcher, c.Origin, "/health/record?patient="+patient+"&token="+c.token, done)
}

// AddNote appends to a chart (requires Login first).
func (c *HealthClient) AddNote(patient, note string, done func(PatientRecord, error)) {
	call(c.Fetcher, c.Origin, "/health/note",
		RecordUpdate{Token: c.token, Patient: patient, Note: note}, done)
}
