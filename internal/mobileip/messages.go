package mobileip

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"time"

	"mcommerce/internal/simnet"
)

// MobileIPPort is the UDP port agents and clients use for registration
// signalling (the real protocol's port 434).
const MobileIPPort simnet.Port = 434

// regRequest asks the home agent to bind the mobile to a care-of address.
type regRequest struct {
	Mobile   simnet.NodeID
	Home     simnet.Addr // the mobile's home agent
	CareOf   simnet.Addr // filled by the relaying foreign agent
	Lifetime time.Duration
	Seq      uint64
	Auth     []byte // HMAC-SHA256 over (Mobile, Lifetime, Seq)
}

// regReply reports the home agent's decision.
type regReply struct {
	Mobile simnet.NodeID
	Seq    uint64
	OK     bool
}

// regWireBytes approximates the registration message size on the wire
// (RFC 3344 request is 24+ bytes plus extensions; we include the auth
// extension).
const regWireBytes = 56

// authTag computes the mobile-home authentication extension. A nil key
// yields a nil tag (authentication disabled).
func authTag(key []byte, mobile simnet.NodeID, lifetime time.Duration, seq uint64) []byte {
	if len(key) == 0 {
		return nil
	}
	mac := hmac.New(sha256.New, key)
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:], uint64(mobile))
	binary.BigEndian.PutUint64(buf[8:], uint64(lifetime))
	binary.BigEndian.PutUint64(buf[16:], seq)
	mac.Write(buf[:])
	return mac.Sum(nil)
}

// authOK verifies a tag; with a nil key any tag (including none) passes.
func authOK(key []byte, req *regRequest) bool {
	if len(key) == 0 {
		return true
	}
	want := authTag(key, req.Mobile, req.Lifetime, req.Seq)
	return hmac.Equal(want, req.Auth)
}
