// Package mtcp implements reliable transport for the simulated network:
// a segment-level TCP with the full RFC 793 connection state machine,
// pluggable congestion control, and the three mobile-network TCP
// optimizations the paper's Section 5.2 describes.
//
// The transport is a real TCP in miniature, not a transfer abstraction:
//
//   - Every connection walks the RFC 793 state diagram — LISTEN (held by
//     stack listeners), SYN_SENT, SYN_RCVD, ESTABLISHED, FIN_WAIT_1/2,
//     CLOSING, CLOSE_WAIT, LAST_ACK and TIME_WAIT with a 2MSL hold —
//     including simultaneous open and simultaneous close. Inbound
//     segments dispatch through Conn.statefn, the handler function for
//     the current state.
//   - Sequence and acknowledgement numbers are real 32-bit values with
//     wraparound-safe modular comparisons (seq.go); streams longer than
//     4 GiB and initial sequence numbers near 2^32 work like the wire
//     protocol.
//   - Flow control honours the receiver-advertised window, with a
//     persist probe against lost zero-window updates; loss recovery uses
//     cumulative ACKs, out-of-order reassembly, fast retransmit/recovery
//     and go-back-N RTO rewind; RTO comes from SRTT/RTTVAR (RFC 6298)
//     under Karn's rule.
//   - Congestion control is pluggable behind the CongestionControl
//     interface, selected per connection via Options.CC: Reno (RFC 5681,
//     with optional NewReno partial-ACK recovery per RFC 6582) and CUBIC
//     (RFC 8312). The connection owns recovery orchestration; the
//     algorithm owns the window.
//   - Segments ride a per-stack free list mirroring the simnet packet
//     pool, so the established-path send→deliver→ack cycle allocates
//     nothing (pinned by TestSegmentPathZeroAlloc). The list is capped,
//     so one-way traffic cannot grow it for the rest of a run.
//
// The paper: "when it is applied directly to mobile networks, TCP performs
// poorly due to factors such as error-prone wireless channels, frequent
// handoffs and disconnections. In order to optimize reliable data transport
// performance, a number of variants of TCP have been proposed for mobile
// networks." The three cited variants are implemented against this
// transport:
//
//   - Split connection (Yavatkar & Bhagawat [16], I-TCP): Relay terminates
//     the mobile's connection at the wireless gateway — a genuine
//     handshake, sequence space and congestion window — and re-originates
//     a second connection over the wired path, confining loss-induced
//     backoff to the short wireless hop.
//   - Snoop packet caching (Balakrishnan et al. [1]): SnoopAgent caches
//     data segments at the access point by sequence number and answers
//     duplicate ACKs with local retransmissions, suppressing the dupacks
//     so the fixed sender's congestion window is untouched — "a packet
//     caching scheme to reduce the TCP retransmission overhead".
//   - Fast retransmission on reconnection (Caceres & Iftode [2]):
//     Conn.SignalReconnect "utilizes the fast retransmission option
//     immediately after handoff is completed", replacing a multi-second
//     retransmission timeout with an immediate recovery.
//
// The API is callback-driven because the simulation is single-threaded:
// data arrival, connection establishment, half-close (OnEOF) and close
// are delivered as events on the simulation goroutine.
package mtcp
