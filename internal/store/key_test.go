package store_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/store"
)

// oracleJobKey is JobKey as it was written with fmt, kept as the oracle
// of the appending one.
func oracleJobKey(id int64) string { return fmt.Sprintf("%s%016x", store.PrefixJob, id) }

// TestJobKeyMatchesFmtOracle: JobKey writes the bytes %016x did for the
// edge ids — both extremes, the signs' neighbours, a digit count's
// boundaries — and for a seeded sample, with one allocation, the string.
func TestJobKeyMatchesFmtOracle(t *testing.T) {
	ids := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 32, -16, -15, -1, 0, 1, 15, 16, 1 << 32, math.MaxInt64}
	rng := rand.New(rand.NewSource(38))
	for range 1000 {
		ids = append(ids, rng.Int63()>>rng.Intn(63), -rng.Int63()>>rng.Intn(63))
	}
	for _, id := range ids {
		if got, want := store.JobKey(id), oracleJobKey(id); got != want {
			t.Errorf("JobKey(%d) = %q, want %q", id, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = store.JobKey(1 << 32) }); n != 1 {
		t.Errorf("JobKey allocates %v times, want 1", n)
	}
}
