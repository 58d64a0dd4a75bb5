package main

import "time"

// The host calibration loop.  This host's speed moves by up to 1.7x for
// minutes at a time, and per-window measurements showed the cause to be
// the memory system it shares with its neighbours: an arithmetic loop
// that stays in registers kept its speed within 3% while every workload
// swung by 7-11%, and a loop that streams through memory and allocates
// swung with them (between-run spread 7-11% raw, 2-3% after scaling by
// it).  So the loop has two halves of about equal length on the quiet
// host: read-modify-write passes over a buffer larger than the L2 cache,
// and a churn of small allocations that keeps the collector busy on the
// second core, as the daemon's does.  It calls nothing of the program
// under test.
var (
	calibBuf  = make([]uint64, 1<<20) // 8 MB
	calibSink uint64                  // keeps the compiler from deleting the loop
	// calibPasses sizes the loop; only the smoke test shortens it.
	calibPasses = 4
)

// calibrate runs the calibration loop n times and returns its mean time
// in milliseconds.  The neighbours' interference comes in bursts shorter
// than a reading, and a window of the workload feels their average, so
// the readings are averaged: the fastest of them tracked the workloads
// worse.  One reading swings by 15% from second to second, so how long
// the loop samples the host decides how well a run's scaling repeats.
func calibrate(n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		var x uint64
		for p := 0; p < calibPasses; p++ {
			for j := range calibBuf {
				x += calibBuf[j]
				calibBuf[j] = x
			}
		}
		var keep [][]byte
		for j := 0; j < 7500*calibPasses; j++ {
			keep = append(keep, make([]byte, 256+j%512))
			if len(keep) > 1000 {
				keep = keep[:0]
			}
		}
		calibSink += x + uint64(len(keep))
	}
	return float64(time.Since(start)) / float64(time.Millisecond) / float64(n)
}

// Readings per calibration: between windows, where the end-to-end
// metrics are scaled, and around set-up repetitions and probe groups.
const (
	windowReadings = 16
	otherReadings  = 6
)
