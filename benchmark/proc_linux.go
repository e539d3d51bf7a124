package main

import (
	"os/exec"
	"syscall"
	"time"
)

// dieWithParent makes the kernel kill a child when this process dies, so
// that no exit path, a crash included, leaves a daemon behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// processUsage reads the CPU time the process has used and its peak
// resident set.
func processUsage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
}
