package mtcp

import (
	"fmt"
	"strings"
)

// Flags is the TCP segment flag set.
type Flags uint8

// Segment flags.
const (
	SYN Flags = 1 << iota
	ACK
	FIN
	RST
)

func (f Flags) String() string {
	var parts []string
	if f&SYN != 0 {
		parts = append(parts, "SYN")
	}
	if f&ACK != 0 {
		parts = append(parts, "ACK")
	}
	if f&FIN != 0 {
		parts = append(parts, "FIN")
	}
	if f&RST != 0 {
		parts = append(parts, "RST")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "|")
}

// Segment is a simulated TCP segment. Sequence numbers are real 32-bit
// values: all comparisons wrap modulo 2^32 (see seq.go), exactly like
// the wire protocol. A Segment travels as the Body of a simnet.Packet
// with ProtoTCP.
//
// Segments on the hot path come from a per-stack free list: the sending
// stack allocates, the receiving stack recycles after the connection has
// processed the segment (receivers that must retain one — out-of-order
// reassembly, snoop caches — take an unpooled copy first).
type Segment struct {
	Flags Flags
	// Seq is the sequence number of Payload[0] in the sender's stream
	// (for SYN/FIN, the sequence the flag occupies).
	Seq uint32
	// Ack is the next sequence expected by the receiver; valid when ACK
	// set.
	Ack uint32
	// Wnd is the receiver's advertised window in bytes.
	Wnd int
	// Payload is the application data. Segments share payload slices with
	// the sender's buffer; receivers must not mutate them.
	Payload []byte

	// pooled marks a segment owned by a stack free list; receivers
	// recycle it after delivery. Copies made for retention clear it.
	pooled bool
}

// Len returns the sequence-space length of the segment: payload bytes plus
// one for SYN and one for FIN.
func (s *Segment) Len() uint32 {
	n := uint32(len(s.Payload))
	if s.Flags&SYN != 0 {
		n++
	}
	if s.Flags&FIN != 0 {
		n++
	}
	return n
}

// clone returns an unpooled copy safe to retain past delivery. The
// payload slice is shared: a sender never rewrites buffered bytes that a
// receiver could still deliver (acked prefixes are only reused once the
// peer has acknowledged — hence delivered or discarded — everything).
func (s *Segment) clone() *Segment {
	cp := *s
	cp.pooled = false
	return &cp
}

func (s *Segment) String() string {
	return fmt.Sprintf("[%s seq=%d ack=%d len=%d]", s.Flags, s.Seq, s.Ack, len(s.Payload))
}
