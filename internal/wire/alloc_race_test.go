//go:build race

package wire

func init() { raceDetector = true }
