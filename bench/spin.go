package main

import "time"

// The noise sentinel is one fixed CPU loop timed before and after every
// round, so a reader can tell machine drift from program change: when it
// moves with a workload's numbers the machine drifted, when it holds still
// the program changed.
//
// The loop is xorshift steps that index a 1 MiB table, resident in the
// core's L2. The drift this host shows is per-vCPU phases, tens of seconds to
// minutes long, in which cache-heavy user code runs 15-20% (at times 80%)
// slower with no steal time, no page faults and no system time: a neighbour
// on the physical core. A register-only loop does not see them at all (over a
// ten-minute log its correlation with the MWU solve time was 0.09); this one
// follows every 30 s window of that log within 2%.

const (
	spinTable = 1 << 17    // uint64 slots: 1 MiB
	spinIters = 84_000_000 // about 200 ms on the reference box
)

var (
	spinSlots [spinTable]uint64
	// spinSink keeps the loop's result live so the compiler cannot drop it.
	spinSink uint64
)

// spin times the fixed loop and returns milliseconds.
func spin() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (spinTable - 1)
		spinSlots[j] += x
		acc += spinSlots[(j*31+7)&(spinTable-1)]
	}
	spinSink += acc
	return ms(time.Since(t0))
}
