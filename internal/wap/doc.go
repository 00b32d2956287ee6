// Package wap implements the Wireless Application Protocol middleware of
// the paper's Section 5.1 and Table 3: "an open, global specification that
// allows mobile users with wireless devices to easily access and interact
// with information and services instantly", whose "most important
// technology ... is probably the WAP Gateway".
//
// The stack follows the WAP architecture in miniature:
//
//   - WTP (transaction layer): reliable request/response transactions over
//     the datagram service (simnet.UDP) with retransmission on both sides
//     and duplicate suppression, in the spirit of WTP class 2. A device
//     runs one endpoint (NewWTPAny) for all its sessions.
//   - WSP (session layer): Connect/ConnectReply session establishment over
//     the device's endpoint, method invocations (Get/Post) bound to a
//     session, and Disconnect. Sessions run in the clear: WTLS-lite is
//     measured on its own record layer (security.Channel, ablation A3),
//     not inside this stack.
//   - Gateway: the WAP gateway itself, which works exactly as the paper
//     describes: "requests from mobile stations are sent as a URL through
//     the network to the WAP Gateway; responses are sent from the Web
//     server to the WAP Gateway in HTML and are then translated in WML and
//     sent to the mobile stations." Translation uses markup.HTMLToWML and
//     the WMLC binary encoding (ablatable, for the encoding experiment).
//
// Unlike i-mode (internal/imode), WAP requires a session handshake before
// the first method — one of the behavioural differences Table 3's
// comparison experiment measures.
package wap
