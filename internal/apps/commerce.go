package apps

import (
	"encoding/base64"
	"errors"
	"fmt"

	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/device"
	"mcommerce/internal/security"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

// Commerce is Table 1's first row: "Mobile transactions and payments" for
// businesses. Accounts live in the database server; payments are HMAC-
// signed PaymentOrders (Section 8: payment integrity and authentication)
// that the application program verifies before moving money in a single
// ACID transaction.
type Commerce struct {
	// PaymentKey is the shared payment-signing key. The default is the
	// demo key; production deployments set their own.
	PaymentKey []byte
}

// NewCommerce returns the payments service with the demo signing key.
func NewCommerce() *Commerce {
	return &Commerce{PaymentKey: []byte("payment-demo-key")}
}

var _ Service = (*Commerce)(nil)

// Category implements Service.
func (s *Commerce) Category() string { return "Commerce" }

// Application implements Service.
func (s *Commerce) Application() string { return "Mobile transactions and payments" }

// Clients implements Service.
func (s *Commerce) Clients() string { return "Businesses" }

// Payment API payloads.
type (
	// OpenAccountRequest creates an account with an opening balance.
	OpenAccountRequest struct {
		ID      string `json:"id"`
		Owner   string `json:"owner"`
		Balance int64  `json:"balance"`
	}
	// AccountView is a balance snapshot.
	AccountView struct {
		ID      string `json:"id"`
		Owner   string `json:"owner"`
		Balance int64  `json:"balance"`
	}
	// PayRequest authorizes a transfer; Sig is the base64 detached HMAC
	// over the order fields.
	PayRequest struct {
		OrderID  string `json:"orderId"`
		Payer    string `json:"payer"`
		Payee    string `json:"payee"`
		AmountCp int64  `json:"amountCp"`
		IssuedAt int64  `json:"issuedAt"`
		Sig      string `json:"sig"`
	}
	// PayReceipt confirms a captured payment.
	PayReceipt struct {
		OrderID      string `json:"orderId"`
		PayerBalance int64  `json:"payerBalance"`
	}
)

// Register implements Service.
func (s *Commerce) Register(h *core.Host) error {
	if err := h.DB.CreateTable("accounts", database.Schema{
		{Name: "id", Type: database.TypeString},
		{Name: "owner", Type: database.TypeString},
		{Name: "balance", Type: database.TypeInt},
	}, "id"); err != nil {
		return err
	}
	if err := h.DB.CreateTable("orders", database.Schema{
		{Name: "id", Type: database.TypeString},
		{Name: "payer", Type: database.TypeString},
		{Name: "payee", Type: database.TypeString},
		{Name: "amount", Type: database.TypeInt},
		{Name: "status", Type: database.TypeString},
	}, "id"); err != nil {
		return err
	}

	h.Server.Handle("/pay/open", func(r *webserver.Request) *webserver.Response {
		var req OpenAccountRequest
		if err := readJSON(r, &req); err != nil || req.ID == "" {
			return fail(400, "bad open request")
		}
		if req.Balance < 0 {
			return fail(400, "negative opening balance")
		}
		err := h.DB.Atomically(func(tx *database.Tx) error {
			return tx.Insert("accounts", database.Row{
				"id": req.ID, "owner": req.Owner, "balance": req.Balance,
			})
		})
		if errors.Is(err, database.ErrExists) {
			return fail(409, "account %s exists", req.ID)
		}
		if err != nil {
			return fail(500, "open: %v", err)
		}
		return respondJSON(AccountView{ID: req.ID, Owner: req.Owner, Balance: req.Balance})
	})

	h.Server.Handle("/pay/balance", func(r *webserver.Request) *webserver.Response {
		id := r.Query["id"]
		var view AccountView
		err := h.DB.Atomically(func(tx *database.Tx) error {
			row, err := tx.Get("accounts", id)
			if err != nil {
				return err
			}
			view = accountView(row)
			return nil
		})
		if errors.Is(err, database.ErrNotFound) {
			return fail(404, "no account %s", id)
		}
		if err != nil {
			return fail(500, "balance: %v", err)
		}
		return respondJSON(view)
	})

	h.Server.Handle("/pay/authorize", func(r *webserver.Request) *webserver.Response {
		var req PayRequest
		if err := readJSON(r, &req); err != nil {
			return fail(400, "bad pay request")
		}
		sig, err := base64.StdEncoding.DecodeString(req.Sig)
		if err != nil {
			return fail(400, "bad signature encoding")
		}
		order := security.PaymentOrder{
			OrderID: req.OrderID, Payer: req.Payer, Payee: req.Payee,
			AmountCp: req.AmountCp, IssuedAt: req.IssuedAt,
		}
		if !security.VerifyPayment(s.PaymentKey, order, sig) {
			return fail(401, "payment signature invalid")
		}
		if req.AmountCp <= 0 {
			return fail(400, "non-positive amount")
		}
		var receipt PayReceipt
		err = h.DB.Atomically(func(tx *database.Tx) error {
			payer, err := tx.Get("accounts", req.Payer)
			if err != nil {
				return fmt.Errorf("payer: %w", err)
			}
			payee, err := tx.Get("accounts", req.Payee)
			if err != nil {
				return fmt.Errorf("payee: %w", err)
			}
			pb, _ := payer["balance"].(int64)
			if pb < req.AmountCp {
				return fmt.Errorf("%w: insufficient funds", ErrService)
			}
			eb, _ := payee["balance"].(int64)
			payer["balance"] = pb - req.AmountCp
			payee["balance"] = eb + req.AmountCp
			if err := tx.Update("accounts", payer); err != nil {
				return err
			}
			if err := tx.Update("accounts", payee); err != nil {
				return err
			}
			if err := tx.Insert("orders", database.Row{
				"id": req.OrderID, "payer": req.Payer, "payee": req.Payee,
				"amount": req.AmountCp, "status": "captured",
			}); err != nil {
				return err
			}
			receipt = PayReceipt{OrderID: req.OrderID, PayerBalance: pb - req.AmountCp}
			return nil
		})
		switch {
		case err == nil:
			return respondJSON(receipt)
		case errors.Is(err, database.ErrNotFound):
			return fail(404, "unknown account")
		case errors.Is(err, database.ErrExists):
			return fail(409, "duplicate order %s", req.OrderID)
		case errors.Is(err, ErrService):
			return fail(402, "insufficient funds")
		default:
			return fail(500, "authorize: %v", err)
		}
	})
	return nil
}

func accountView(row database.Row) AccountView {
	id, _ := row["id"].(string)
	owner, _ := row["owner"].(string)
	bal, _ := row["balance"].(int64)
	return AccountView{ID: id, Owner: owner, Balance: bal}
}

// CommerceClient runs payments from a mobile station (or desktop).
type CommerceClient struct {
	Fetcher device.Fetcher
	Origin  simnet.Addr
	// Key signs payment orders; it must match the service's PaymentKey.
	Key []byte
}

// OpenAccount creates an account.
func (c *CommerceClient) OpenAccount(id, owner string, balance int64, done func(AccountView, error)) {
	call(c.Fetcher, c.Origin, "/pay/open",
		OpenAccountRequest{ID: id, Owner: owner, Balance: balance}, done)
}

// Balance fetches an account snapshot.
func (c *CommerceClient) Balance(id string, done func(AccountView, error)) {
	get[AccountView](c.Fetcher, c.Origin, "/pay/balance?id="+id, done)
}

// Pay signs and submits a payment authorization.
func (c *CommerceClient) Pay(orderID, payer, payee string, amountCp, issuedAt int64, done func(PayReceipt, error)) {
	order := security.PaymentOrder{
		OrderID: orderID, Payer: payer, Payee: payee,
		AmountCp: amountCp, IssuedAt: issuedAt,
	}
	sig := security.SignPayment(c.Key, order)
	call(c.Fetcher, c.Origin, "/pay/authorize", PayRequest{
		OrderID: orderID, Payer: payer, Payee: payee,
		AmountCp: amountCp, IssuedAt: issuedAt,
		Sig: base64.StdEncoding.EncodeToString(sig),
	}, done)
}
