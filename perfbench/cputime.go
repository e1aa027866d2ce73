package main

import (
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow returns the CPU time this process has used, over all its
// threads. Every end-to-end time is a difference of two readings: on a
// shared virtual machine the hypervisor can take the CPU away for a
// large and changing share of wall time (steal), which process CPU time
// leaves out and wall time does not.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	// clock_gettime cannot fail for a valid clock and pointer.
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// refNominal is the CPU time speedSample takes at the nominal host
// speed, about its median on the 2-vCPU linux/amd64 VM (Xeon, 2 MB L2
// per vCPU, go1.24.0) the benchmark was tuned on. It only sets the
// scale of the normalised figures.
const refNominal = 4 * time.Millisecond

var refData = make([]uint32, 16<<10)

// speedSample times a fixed kernel that stands for the host's current
// speed: filling 16k integers from a fixed xorshift sequence and sorting
// them, twice. Sorting is branchy integer work on data that stays in L2,
// as the simulator's inner loops are, so host contention slows the two
// alike; and it is standard-library code that no change to this
// repository can speed up.
func speedSample() time.Duration {
	c0 := cpuNow()
	for range 2 {
		x := uint32(2463534242)
		for i := range refData {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			refData[i] = x
		}
		slices.Sort(refData)
	}
	return cpuNow() - c0
}
