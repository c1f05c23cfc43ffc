package store

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"declust/internal/layout"
)

// diskImageGolden pins the physical bytes — data plus checksum trailer —
// that one deterministic lifecycle leaves on every in-service backend, per
// code, as SHA-256 hex. Any change to how parity is computed, where a
// write lands, or how a unit is stamped changes them.
var diskImageGolden = map[string]string{
	"P":  "b69dc3d1f37607f094c33743b4df8f18277a13023f0cee07bc3414e24c4484df",
	"PQ": "6c1cf1bdc44155b89bfc3171272e25431041430dca3174fcbe18235ff2ec3e02",
}

// goldenLifecycle runs the pinned lifecycle against a serial store over
// FaultDisk-wrapped mem disks and returns the SHA-256 of every in-service
// backend's physical units, disk by disk, offset by offset:
//
//   - fill, overwrite half the units, and range writes (partial stripes
//     and full-stripe large writes);
//   - fail one disk (the stripe-0 P disk), then degraded reads and folded
//     writes, single-unit and range;
//   - under P+Q, fail the stripe-0 Q disk as well, so some stripes write
//     with both parities lost, and read everything through the two-erasure
//     decode;
//   - rebuild every failed disk;
//   - rot one data unit and drop one parity write, then Scrub and
//     CheckParity.
func goldenLifecycle(t *testing.T, lay layout.Layout) string {
	t.Helper()
	const units, unitSize = 64, 512
	usable := layout.UsableUnitsPerDisk(lay, units)
	c := lay.Disks()
	fds := make([]*FaultDisk, c)
	disks := make([]Disk, c)
	for i := range disks {
		fds[i] = NewFaultDisk(NewMemDisk(usable, unitSize), FaultConfig{})
		disks[i] = fds[i]
	}
	s, err := New(Config{
		Layout: lay, UnitsPerDisk: units, UnitSize: unitSize, Disks: disks,
		IOWorkers: 1, RebuildWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	total := s.DataUnits()
	per := int64(layout.DataPerStripe(lay))
	buf := make([]byte, unitSize)
	span := make([]byte, total*unitSize)
	write := func(n int64, v uint64) {
		t.Helper()
		fill(buf, n, v)
		if err := s.WriteUnit(n, buf); err != nil {
			t.Fatalf("WriteUnit(%d) v%d: %v", n, v, err)
		}
	}
	writeRange := func(start, n int64, v uint64) {
		t.Helper()
		b := span[:n*unitSize]
		for u := int64(0); u < n; u++ {
			fill(b[u*unitSize:(u+1)*unitSize], start+u, v)
		}
		if err := s.WriteRange(start, b); err != nil {
			t.Fatalf("WriteRange(%d, %d) v%d: %v", start, n, v, err)
		}
	}
	readAll := func() {
		t.Helper()
		for n := int64(0); n < total; n++ {
			if err := s.ReadUnit(n, buf); err != nil {
				t.Fatalf("ReadUnit(%d): %v", n, err)
			}
		}
		if err := s.ReadRange(0, span); err != nil {
			t.Fatalf("ReadRange: %v", err)
		}
	}

	for n := int64(0); n < total; n++ {
		write(n, 1)
	}
	for n := int64(0); n < total; n += 2 {
		write(n, 2)
	}
	writeRange(1, 2, 3)             // partial stripe: multi-unit delta RMW
	writeRange(per, 3*per, 3)       // three full-stripe large writes
	writeRange(5*per-1, per+2, 3)   // straddles stripes: partial, large, partial
	writeRange(total-per/2-1, 2, 3) // tail

	first := layout.ParityLocOf(lay, 0, 0).Disk
	if err := s.Fail(first); err != nil {
		t.Fatal(err)
	}
	readAll()
	for n := int64(0); n < total; n += 3 {
		write(n, 4)
	}
	writeRange(2, per+1, 4)
	writeRange(8*per, 2*per, 4)

	failed := []int{first}
	if layout.NumParities(lay) == 2 {
		second := layout.ParityLocOf(lay, 0, 1).Disk
		if err := s.Fail(second); err != nil {
			t.Fatal(err)
		}
		failed = append(failed, second)
		readAll()
		for n := int64(1); n < total; n += 2 {
			write(n, 5)
		}
		writeRange(3, 2*per, 5)
		writeRange(12*per, per, 5)
		readAll()
	}
	for range failed {
		if err := s.Rebuild(NewMemDisk(usable, unitSize)); err != nil {
			t.Fatalf("Rebuild: %v", err)
		}
	}
	readAll()

	// Injected damage on disks that never failed (their FaultDisks are
	// still in service): one rotted data unit, one dropped parity write.
	var rotted, dropped int64 = -1, -1
	for n := int64(0); n < total && (rotted < 0 || dropped < 0); n++ {
		loc := s.mapper.Loc(n)
		stripe, _ := lay.Locate(loc)
		p := layout.ParityLocOf(lay, stripe, 0)
		live := func(d int) bool {
			for _, f := range failed {
				if f == d {
					return false
				}
			}
			return true
		}
		switch {
		case rotted < 0 && live(loc.Disk):
			rotted = n
			garbage := make([]byte, PhysUnitSize(unitSize))
			for i := range garbage {
				garbage[i] = 0xEE
			}
			if err := fds[loc.Disk].WriteUnit(loc.Offset, garbage); err != nil {
				t.Fatal(err)
			}
		case dropped < 0 && stripe > 4 && live(p.Disk) && live(loc.Disk):
			dropped = n
			fds[p.Disk].LoseNextWrite()
			write(n, 6)
		}
	}
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.UnitRepairs != 1 || res.ParityRewrites != 1 {
		t.Fatalf("Scrub = %+v, want one unit repair and one parity rewrite", res)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity: %v", err)
	}

	h := sha256.New()
	phys := make([]byte, PhysUnitSize(unitSize))
	st := s.st.Load()
	for d, disk := range st.disks {
		for off := int64(0); off < usable; off++ {
			if err := disk.ReadUnit(off, phys); err != nil {
				t.Fatalf("disk %d unit %d: %v", d, off, err)
			}
			h.Write(phys)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDiskImageGolden runs the pinned lifecycle under each code and
// compares every backend's bytes with the recorded image hash.
func TestDiskImageGolden(t *testing.T) {
	for _, tc := range testCodes {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenLifecycle(t, tc.lay(t, 7, 4))
			if want := diskImageGolden[tc.name]; got != want {
				t.Fatalf("disk image hash = %s, want %s", got, want)
			}
		})
	}
}
