//go:build !race

package netlist

const raceEnabled = false
