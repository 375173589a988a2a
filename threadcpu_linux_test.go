//go:build linux

package pipecache

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall does not name. Unlike getrusage(RUSAGE_THREAD), whose figures
// can move in scheduler ticks (4 ms at HZ=250), this clock reads the
// thread's runtime in nanoseconds.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling OS thread has used. Callers
// lock their goroutine to its thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
