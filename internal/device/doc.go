// Package device implements the paper's mobile stations component
// (Section 4): the handheld devices of Table 2, the three dominant
// operating systems of Section 4.1 (Palm OS, Pocket PC, Symbian OS), and a
// microbrowser that renders WML decks and cHTML pages through either
// middleware.
//
// The paper's constraints are modelled, not just listed: "mobile stations
// are limited by their small screens, limited memory, limited processing
// power, and low battery power". Concretely:
//
//   - processing power: page parsing/rendering time scales inversely with
//     the profile's CPU clock;
//   - limited memory: content larger than free RAM fails with
//     ErrOutOfMemory;
//   - low battery power: receive, transmit and CPU work drain a battery
//     model, with an OS efficiency factor that reproduces Section 4.1's
//     observation that Palm OS's "plain vanilla design ... has resulted in
//     a long battery life, approximately twice that of its rivals";
//   - small screens: pages report how many screenfuls they occupy on the
//     profile's display.
//
// The browser keeps no offline page cache: a fetch that fails on the
// network fails. Disconnected operation is modelled where the paper puts
// it, in the handheld's embedded database (internal/mobiledb and its
// sync).
//
// Table 2 in the paper omits a few physical specs (screen, battery) as
// "confidential due to business considerations"; the profiles augment the
// table with period-typical values, recorded in DESIGN.md.
package device
