//go:build race

package client

func init() { raceDetector = true }
