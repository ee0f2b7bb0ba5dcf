//go:build !unix

package cluster

import "time"

// processCPU is not measured where getrusage is missing.
func processCPU() (time.Duration, bool) { return 0, false }
