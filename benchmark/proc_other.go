//go:build !linux

package main

import (
	"os/exec"
	"time"
)

// Outside Linux the benchmark still builds and runs; it reports no process
// usage and relies on deferred stops alone to end its children.
func dieWithParent(*exec.Cmd) {}

func processUsage() (time.Duration, float64) { return 0, 0 }
