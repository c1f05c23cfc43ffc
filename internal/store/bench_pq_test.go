package store

import (
	"sync/atomic"
	"testing"
)

// pqWorkerVariants is workerVariants over the P+Q store.
func pqWorkerVariants(b *testing.B, units int64, fn func(b *testing.B, s *Store, lat *atomic.Int64)) {
	b.Run("serial", func(b *testing.B) {
		s, lat := latStore(b, testPQLayout(b, 21, 5), units, 1)
		fn(b, s, lat)
	})
	b.Run("parallel", func(b *testing.B) {
		s, lat := latStore(b, testPQLayout(b, 21, 5), units, 8)
		fn(b, s, lat)
	})
}

// doublyLostUnits returns the data units on victim disk a whose stripe
// also holds a unit of victim disk b — every read of one is a genuine
// two-erasure decode once both disks are failed.
func doublyLostUnits(b *testing.B, s *Store, a, c int) []int64 {
	b.Helper()
	var out []int64
	for n := int64(0); n < s.DataUnits(); n++ {
		u := s.mapper.Loc(n)
		if u.Disk != a {
			continue
		}
		stripe, _ := s.lay.Locate(u)
		for j := 0; j < s.lay.G(); j++ {
			if s.lay.Unit(stripe, j).Disk == c {
				out = append(out, n)
				break
			}
		}
	}
	if len(out) == 0 {
		b.Fatalf("no stripe spans both disks %d and %d", a, c)
	}
	return out
}

// BenchmarkStorePQDegraded2Read measures reads of units whose stripe has
// lost BOTH failed disks: every read runs the GF(2^8) two-erasure decode
// over the stripe's G−2 survivors.
func BenchmarkStorePQDegraded2Read(b *testing.B) {
	pqWorkerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) {
		const v1, v2 = 7, 13
		lost := doublyLostUnits(b, s, v1, v2)
		if err := s.Fail(v1); err != nil {
			b.Fatal(err)
		}
		if err := s.Fail(v2); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, s.UnitSize())
		b.SetBytes(int64(s.UnitSize()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.ReadUnit(lost[i%len(lost)], buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStorePQWriteRMW measures the healthy dual-parity small write:
// the six-access read-modify-write (read data+P+Q, write data+P+Q, Q
// folded through the GF(2^8) generator), against single parity's four.
func BenchmarkStorePQWriteRMW(b *testing.B) {
	pqWorkerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) {
		buf := make([]byte, s.UnitSize())
		total := s.DataUnits()
		b.SetBytes(int64(s.UnitSize()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := int64(i) % total
			fill(buf, n, 2)
			if err := s.WriteUnit(n, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStorePQRebuild2 measures the two-erasure rebuild: each
// iteration fails two disks and rebuilds both slots, the first sweep
// decoding doubly-lost stripes with the full Reed–Solomon solve.
func BenchmarkStorePQRebuild2(b *testing.B) {
	pqWorkerVariants(b, 45, func(b *testing.B, s *Store, lat *atomic.Int64) {
		const v1, v2 = 7, 13
		spares := []Disk{
			slowDisk{Disk: NewMemDisk(s.unitsPerDisk, s.UnitSize()), lat: lat},
			slowDisk{Disk: NewMemDisk(s.unitsPerDisk, s.UnitSize()), lat: lat},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Fail(v1); err != nil {
				b.Fatal(err)
			}
			if err := s.Fail(v2); err != nil {
				b.Fatal(err)
			}
			for j := range spares {
				if err := s.Rebuild(spares[j]); err != nil {
					b.Fatal(err)
				}
			}
			// The detached victims become the next blank spares.
			s.admin.Lock()
			spares[0] = s.detached[len(s.detached)-2]
			spares[1] = s.detached[len(s.detached)-1]
			s.detached = s.detached[:len(s.detached)-2]
			s.admin.Unlock()
		}
	})
}
