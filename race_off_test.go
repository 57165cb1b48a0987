//go:build !race

package trout_test

const raceEnabled = false
