//go:build race

package netlist

// raceEnabled reports a race-detector build. Such a build allocates
// more bytes for the same calls (ReadCKT of gen1200 text: 427 bytes per
// node against 367), so the byte pins hold only without it.
const raceEnabled = true
