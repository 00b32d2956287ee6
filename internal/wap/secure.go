package wap

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"mcommerce/internal/security"
	"mcommerce/internal/simnet"
)

// WTLS-lite support: the real WAP stack interposes WTLS between the
// transaction and datagram layers. A session established with
// ConnectSecure runs a nonce handshake inside the WSP connect exchange and
// then carries every method PDU and reply as an encrypted,
// integrity-protected record (security.Channel). Wire sizes are the true
// sealed-record sizes, so the security overhead is visible on the air
// interface.
//
// Secure sessions serialize their method transactions: the record layer
// requires in-order delivery, which sequential WSP usage guarantees.

// Secure-session errors.
var (
	// ErrSecurityRequired reports a plaintext connect to a gateway that
	// mandates WTLS.
	ErrSecurityRequired = errors.New("wap: gateway requires WTLS")
	// ErrNoWTLS reports a secure connect to a gateway without a key.
	ErrNoWTLS = errors.New("wap: gateway does not offer WTLS")
)

// wspSecure wraps an encrypted PDU (client -> gateway).
type wspSecure struct {
	SessionID uint32
	Record    []byte
}

// wspSecureReply wraps an encrypted reply (gateway -> client).
type wspSecureReply struct {
	Record []byte
}

// encodePDU serializes a WSP PDU for sealing.
func encodePDU(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("wap: encode pdu: %w", err)
	}
	return buf.Bytes(), nil
}

// decodePDU parses a sealed PDU's plaintext.
func decodePDU(b []byte) (any, error) {
	var v any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, fmt.Errorf("wap: decode pdu: %w", err)
	}
	return v, nil
}

// gob needs the concrete PDU types registered once per process.
var _ = func() bool {
	gob.Register(&wspMethod{})
	gob.Register(&wspReply{})
	gob.Register(&wspSuspend{})
	gob.Register(&wspResume{})
	gob.Register(&wspDisconnect{})
	gob.Register(&wspOK{})
	return true
}()

// ConnectSecure establishes a WTLS-protected WSP session over the device's
// transaction endpoint wtp with a gateway configured with the same
// pre-shared key. The client hello rides in the connect request and the
// server hello (with its key-possession verifier) in the reply; done
// receives the secured session or an error (security.ErrHandshake on a
// key mismatch, ErrNoWTLS if the gateway has no key).
func ConnectSecure(wtp *WTP, gateway simnet.Addr, accept []string, psk []byte, done func(*Session, error)) {
	if accept == nil {
		accept = []string{"application/vnd.wap.wmlc", "text/vnd.wap.wml"}
	}
	hello, finish, err := security.HandshakeClient(psk, wtp.node.Sched().Rand())
	if err != nil {
		done(nil, err)
		return
	}
	s := &Session{wtp: wtp, gateway: gateway}
	req := &wspConnect{Accept: accept, Hello: &hello}
	s.wtp.Invoke(gateway, req, pduBytes(req), func(result any, _ int, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		rep, ok := result.(*wspConnectReply)
		if !ok || rep.SessionID == 0 {
			done(nil, ErrNoSession)
			return
		}
		if rep.Hello == nil {
			done(nil, ErrNoWTLS)
			return
		}
		ch, err := finish(*rep.Hello)
		if err != nil {
			done(nil, err)
			return
		}
		s.id = rep.SessionID
		s.secure = ch
		s.ready = true
		done(s, nil)
	})
}

// sealPDU protects an outgoing PDU for a secure session.
func (s *Session) sealPDU(pdu any) (*wspSecure, error) {
	plain, err := encodePDU(pdu)
	if err != nil {
		return nil, err
	}
	return &wspSecure{SessionID: s.id, Record: s.secure.Seal(plain)}, nil
}

// openReply unwraps a gateway reply on a secure session.
func (s *Session) openReply(result any) (any, error) {
	wrapped, ok := result.(*wspSecureReply)
	if !ok {
		return nil, ErrNoSession
	}
	plain, err := s.secure.Open(wrapped.Record)
	if err != nil {
		return nil, err
	}
	return decodePDU(plain)
}

// serveSecure handles an encrypted PDU at the gateway: open, dispatch to
// the plaintext handler, seal the reply.
func (g *Gateway) serveSecure(m *wspSecure, respond func(any, int)) {
	ch, ok := g.channels[m.SessionID]
	if !ok {
		rep := &wspReply{Status: 403, ContentType: "text/plain", Payload: []byte("no secure session")}
		respond(rep, pduBytes(rep))
		return
	}
	plain, err := ch.Open(m.Record)
	if err != nil {
		// Tampered or replayed record: drop the transaction with an
		// unencrypted error (the client's channel state is suspect).
		rep := &wspReply{Status: 400, ContentType: "text/plain", Payload: []byte(err.Error())}
		respond(rep, pduBytes(rep))
		return
	}
	pdu, err := decodePDU(plain)
	if err != nil {
		rep := &wspReply{Status: 400, ContentType: "text/plain", Payload: []byte(err.Error())}
		respond(rep, pduBytes(rep))
		return
	}
	// Stamp the session id from the authenticated envelope so the inner
	// dispatch addresses the right session.
	stampSession(pdu, m.SessionID)
	g.serve(simnet.Addr{}, pdu, func(reply any, _ int) {
		plainReply, err := encodePDU(reply)
		if err != nil {
			rep := &wspReply{Status: 500, ContentType: "text/plain", Payload: []byte(err.Error())}
			respond(rep, pduBytes(rep))
			return
		}
		wrapped := &wspSecureReply{Record: ch.Seal(plainReply)}
		respond(wrapped, pduBytes(wrapped))
	})
}

// stampSession overwrites the PDU's session id with the envelope's.
func stampSession(pdu any, id uint32) {
	switch p := pdu.(type) {
	case *wspMethod:
		p.SessionID = id
	case *wspSuspend:
		p.SessionID = id
	case *wspResume:
		p.SessionID = id
	case *wspDisconnect:
		p.SessionID = id
	}
}
