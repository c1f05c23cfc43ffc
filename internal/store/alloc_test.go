//go:build !race

// The race detector makes sync.Pool drop pooled buffers at random, so
// allocation counts mean something only without it.

package store

import (
	"fmt"
	"testing"

	"declust/internal/layout"
)

// TestUnitOpAllocs pins the allocations of one unit operation on the
// paper's array (C=21, G=5, 4 KiB units) under each code, serial and
// parallel, healthy and degraded. The degraded write is a
// read-modify-write in a stripe that has lost another unit.
func TestUnitOpAllocs(t *testing.T) {
	const writeCeiling, readCeiling = 2, 1
	for _, tc := range testCodes {
		for _, io := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/io=%d", tc.name, io), func(t *testing.T) {
				lay := tc.lay(t, 21, 5)
				s, err := New(Config{Layout: lay, UnitsPerDisk: 210, UnitSize: 4096, IOWorkers: io})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				const n = 5
				buf := make([]byte, s.UnitSize())
				check := func(what string, ceiling float64, op func(int64, []byte) error) {
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
				check("healthy WriteUnit", writeCeiling, s.WriteUnit)
				check("healthy ReadUnit", readCeiling, s.ReadUnit)

				loc := s.mapper.Loc(n)
				stripe, _ := lay.Locate(loc)
				for j := 0; j < lay.G(); j++ {
					if u := lay.Unit(stripe, j); u != loc && !layout.IsParityPos(lay, stripe, j) {
						if err := s.Fail(u.Disk); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
				check("degraded WriteUnit", writeCeiling, s.WriteUnit)
				check("degraded ReadUnit", readCeiling, s.ReadUnit)
			})
		}
	}
}
