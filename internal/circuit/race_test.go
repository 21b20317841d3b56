//go:build race

package circuit

func init() { raceEnabled = true }
