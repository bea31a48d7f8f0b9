//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host times are CPU times, not wall times. On a shared machine the
// benchmark waits for a CPU for stretches that have nothing to do with the
// program, which wall time would count; CPU time counts only what the
// process ran, on every thread, so it includes the garbage collector's
// work on the second CPU.

// Clock ids of clock_gettime(2): unlike getrusage, these CPU clocks
// have nanosecond resolution.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuNow returns the CPU time the process has used so far.
func cpuNow() time.Duration {
	return cpuClock(clockProcessCPU)
}

// threadCPU runs fn on a locked OS thread and returns the CPU time that
// thread spent in it, leaving out concurrent work of other threads.
func threadCPU(fn func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuClock(clockThreadCPU)
	fn()
	return cpuClock(clockThreadCPU) - t0
}

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // both clocks exist on every Linux the benchmark runs on
	}
	return time.Duration(ts.Nano())
}
