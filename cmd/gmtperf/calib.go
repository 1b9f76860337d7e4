package main

import (
	"runtime"
	"sort"
	"syscall"
)

// refCalibS is calibrate's CPU time on the reference host when it is
// quiet. cpu_ref_s scales each pass by refCalibS over the calibration
// time measured around it, so it reads as CPU seconds on that host.
const refCalibS = 0.1

// cpuSeconds is the CPU time, user and system, that every thread of this
// process has used so far. Time the host gave the guest's CPUs to
// someone else (steal) is not in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// calibNode and calibRing give calibrate's allocation churn a small live
// set, the way a simulation keeps its pages while it discards requests.
type calibNode struct {
	a, b, c uint64
	next    *calibNode
}

var (
	calibRing [1 << 16]*calibNode
	calibSink uint64 // keeps calibrate's results live
)

// calibrate runs a fixed piece of work that calls no package of the
// repository, so no change to the program can move it, and returns the
// CPU seconds it took. On a shared host a co-tenant slows a pass by as
// much as 2× for seconds at a time; a pass's CPU time divided by the
// calibration's measures the program, not the host. The mix resembles
// the simulator's: integer hashing, map updates, a random walk over a
// table larger than the caches, short-lived allocations with a small
// live set (garbage collection included), and a sort.
func calibrate() float64 {
	runtime.GC()
	c0 := cpuSeconds()
	x := uint64(88172645463325252)
	rnd := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }

	h := uint64(1)
	for i := 0; i < 5_000_000; i++ {
		h = h*6364136223846793005 + uint64(i)
		h ^= h >> 29
	}
	m := make(map[uint64]uint64)
	for i := 0; i < 100_000; i++ {
		k := rnd() % 20_000
		m[k] += k
	}
	const tableLen = 4 << 20 // 16 MB of uint32
	table := make([]uint32, tableLen)
	for i := range table {
		table[i] = uint32(rnd())
	}
	j := uint32(0)
	for i := 0; i < 150_000; i++ {
		j = table[(j^uint32(i))&(tableLen-1)]
	}
	for i := 0; i < 700_000; i++ {
		n := &calibNode{a: rnd()}
		n.next = calibRing[(i*7)&(len(calibRing)-1)]
		calibRing[i&(len(calibRing)-1)] = n
	}
	clear(calibRing[:])
	s := make([]uint64, 50_000)
	for i := range s {
		s[i] = rnd()
	}
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })

	calibSink += h + uint64(len(m)) + uint64(j) + s[0]
	return cpuSeconds() - c0
}
