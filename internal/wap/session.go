package wap

import "mcommerce/internal/simnet"

// Session is the client (mobile station) side of a WSP session with a WAP
// gateway. All methods are event-driven on the simulation goroutine.
type Session struct {
	wtp     *WTP
	gateway simnet.Addr
	id      uint32
	ready   bool
}

// Reply is a completed method's result as seen by the microbrowser.
// Payload may share its bytes with the gateway's translation memo and
// response cache, so it is read-only.
type Reply struct {
	Status      int
	ContentType string
	Payload     []byte
}

// Connect establishes a WSP session with the gateway over the device's
// transaction endpoint wtp; every session a device opens shares that one
// endpoint. accept lists content types the client renders (nil means WMLC
// then WML). done fires with the session or an error.
func Connect(wtp *WTP, gateway simnet.Addr, accept []string, done func(*Session, error)) {
	if accept == nil {
		accept = []string{"application/vnd.wap.wmlc", "text/vnd.wap.wml"}
	}
	s := &Session{wtp: wtp, gateway: gateway}
	s.wtp.Invoke(gateway, &wspConnect{Accept: accept}, pduBytes(&wspConnect{Accept: accept}),
		func(result any, _ int, err error) {
			if err != nil {
				done(nil, err)
				return
			}
			rep, ok := result.(*wspConnectReply)
			if !ok {
				done(nil, ErrNoSession)
				return
			}
			s.id = rep.SessionID
			s.ready = true
			done(s, nil)
		})
}

// Get fetches a URL through the gateway.
func (s *Session) Get(u URL, done func(*Reply, error)) {
	s.method("GET", u, nil, nil, done)
}

// Post submits a body to a URL through the gateway.
func (s *Session) Post(u URL, contentType string, body []byte, done func(*Reply, error)) {
	hdr := map[string]string{"content-type": contentType}
	s.method("POST", u, hdr, body, done)
}

func (s *Session) method(method string, u URL, headers map[string]string, body []byte, done func(*Reply, error)) {
	if !s.ready {
		done(nil, ErrNoSession)
		return
	}
	pdu := &wspMethod{SessionID: s.id, Method: method, URL: u, Headers: headers, Body: body}
	s.wtp.Invoke(s.gateway, pdu, pduBytes(pdu), func(result any, _ int, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		rep, ok := result.(*wspReply)
		if !ok {
			done(nil, ErrNoSession)
			return
		}
		done(&Reply{Status: rep.Status, ContentType: rep.ContentType, Payload: rep.Payload}, nil)
	})
}

// Disconnect ends the session.
func (s *Session) Disconnect(done func(error)) {
	if !s.ready {
		if done != nil {
			done(ErrNoSession)
		}
		return
	}
	pdu := &wspDisconnect{SessionID: s.id}
	s.ready = false
	s.wtp.Invoke(s.gateway, pdu, pduBytes(pdu), func(_ any, _ int, err error) {
		if done != nil {
			done(err)
		}
	})
}
