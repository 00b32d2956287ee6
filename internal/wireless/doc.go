// Package wireless simulates the wireless local area networks of the
// paper's component (iv). It implements every WLAN standard from Table 4
// (Bluetooth, 802.11b, 802.11a, HiperLAN2, 802.11g) as a parameterized
// radio model: nominal rate, typical range, modulation and frequency band.
//
// The model follows the paper's Section 6.1:
//
//   - Infrastructure mode: an access point (AP) "acting as a router or
//     switch is a part of a wired network, mobile devices connect directly
//     to the AP through radio channels" and "data packets are relayed by an
//     AP to the other end of a network connection".
//   - Ad hoc mode: "if no APs are available, mobile devices can form a
//     wireless ad hoc network among themselves and exchange data packets or
//     perform business transactions as necessary".
//
// Radio realism is intentionally first-order but captures everything the
// paper's tables and the mobile-TCP literature need:
//
//   - a shared half-duplex channel per AP (and one per ad hoc cluster),
//     so stations contend for air time;
//   - distance-dependent rate stepdown (full/half/quarter nominal rate)
//     and bit-error-driven packet loss, with a hard cutoff at the
//     standard's typical range;
//   - association with the nearest AP in range, re-evaluated at once
//     when a station moves.
package wireless
