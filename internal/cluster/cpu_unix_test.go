//go:build unix

package cluster

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time this process has used, user and
// system, as getrusage reports it.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
