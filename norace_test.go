//go:build !race

package kcore

const raceEnabled = false
