package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Clock ids of clock_gettime(2). CPU time counts only the time a thread
// actually ran: not the time it waited for a CPU, in this system or, where
// the kernel accounts steal time, on the host under it.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time of every thread of the process, the
// garbage collector's included.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU is the CPU time of the calling OS thread; the caller locks
// its goroutine to the thread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }
