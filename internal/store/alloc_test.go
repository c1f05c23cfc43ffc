//go:build !race

// The race detector makes sync.Pool drop pooled buffers at random, so
// allocation counts mean something only without it.

package store

import (
	"fmt"
	"testing"
)

// TestUnitOpAllocs pins the allocations of one unit operation on the
// paper's array (C=21, G=5, 4 KiB units) under each code, serial and
// parallel, healthy and degraded. The degraded write is a
// read-modify-write in a stripe that has lost another unit; the folded
// write and the lost read then target that lost unit itself. Every op is
// allocation-free except the lost read, whose survivor gather builds its
// item list (and, with a helper, the fan-out's closure and goroutine).
func TestUnitOpAllocs(t *testing.T) {
	lostReadCeiling := map[int]float64{1: 1, 2: 7}
	for _, tc := range testCodes {
		for _, io := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/io=%d", tc.name, io), func(t *testing.T) {
				lay := tc.lay(t, 21, 5)
				s, err := New(Config{Layout: lay, UnitsPerDisk: 210, UnitSize: 4096, IOWorkers: io})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				buf := make([]byte, s.UnitSize())
				check := func(what string, n int64, ceiling float64, op func(int64, []byte) error) {
					t.Helper()
					var opErr error
					allocs := testing.AllocsPerRun(100, func() {
						if err := op(n, buf); err != nil {
							opErr = err
						}
					})
					if opErr != nil {
						t.Fatalf("%s: %v", what, opErr)
					}
					if allocs > ceiling {
						t.Errorf("%s: %.0f allocs, ceiling %.0f", what, allocs, ceiling)
					}
				}
				const n = 5
				check("healthy WriteUnit", n, 0, s.WriteUnit)
				check("healthy ReadUnit", n, 0, s.ReadUnit)

				loc := s.mapper.Loc(n)
				stripe, _ := lay.Locate(loc)
				lost := int64(-1)
				for m := stripe * s.dataPerStripe; m < (stripe+1)*s.dataPerStripe; m++ {
					if u := s.mapper.Loc(m); u != loc {
						if err := s.Fail(u.Disk); err != nil {
							t.Fatal(err)
						}
						lost = m
						break
					}
				}
				if lost < 0 {
					t.Fatal("no other data unit in the stripe")
				}
				check("degraded WriteUnit", n, 0, s.WriteUnit)
				check("degraded ReadUnit", n, 0, s.ReadUnit)
				check("folded WriteUnit", lost, 0, s.WriteUnit)
				check("lost ReadUnit", lost, lostReadCeiling[io], s.ReadUnit)
			})
		}
	}
}
