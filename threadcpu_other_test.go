//go:build !linux

package pipecache

import "time"

var processStart = time.Now()

// threadCPU falls back to wall time where per-thread CPU time is not
// available through package syscall.
func threadCPU() time.Duration { return time.Since(processStart) }
