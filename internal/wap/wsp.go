package wap

import (
	"errors"
	"fmt"

	"mcommerce/internal/simnet"
)

// ErrNoSession reports a method on an unestablished or disconnected
// session.
var ErrNoSession = errors.New("wap: no session")

// URL addresses a resource on an origin server in the wired network.
type URL struct {
	Origin simnet.Addr
	Path   string
}

func (u URL) String() string { return fmt.Sprintf("%s%s", u.Origin, u.Path) }

// WSP PDUs (carried as WTP transaction bodies).

type wspConnect struct {
	// Accept lists the content types the client renders, most preferred
	// first (a microbrowser sends WMLC+WML).
	Accept []string
}

type wspConnectReply struct {
	SessionID uint32
}

type wspMethod struct {
	SessionID uint32
	Method    string // "GET" or "POST"
	URL       URL
	Headers   map[string]string
	Body      []byte
}

// wspReply is a method result.
type wspReply struct {
	Status      int
	ContentType string
	Payload     []byte
}

type wspDisconnect struct {
	SessionID uint32
}

// wspOK acknowledges a disconnect.
type wspOK struct{}

// pduBytes estimates a PDU's wire size.
func pduBytes(body any) int {
	switch m := body.(type) {
	case *wspConnect:
		n := 4
		for _, a := range m.Accept {
			n += len(a) + 1
		}
		return n
	case *wspConnectReply:
		return 6
	case *wspMethod:
		n := 8 + len(m.Method) + len(m.URL.Path) + len(m.Body)
		for k, v := range m.Headers {
			n += len(k) + len(v) + 2
		}
		return n
	case *wspReply:
		return 6 + len(m.ContentType) + len(m.Payload)
	default:
		return 4
	}
}
