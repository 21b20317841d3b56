//go:build race

package muzzle

func init() { raceEnabled = true }
