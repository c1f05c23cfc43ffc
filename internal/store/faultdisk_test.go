package store

import (
	"bytes"
	"errors"
	"testing"

	"declust/internal/layout"
)

// faultStore builds a store whose every backend is a FaultDisk over a mem
// disk, returning the wrappers for knob access.
func faultStore(t *testing.T, lay layout.Layout, unitsPerDisk int64, unitSize int, mk func(disk int) FaultConfig, cfg Config) (*Store, []*FaultDisk) {
	t.Helper()
	c := lay.Disks()
	cfg.Layout = lay
	cfg.UnitsPerDisk = unitsPerDisk
	cfg.UnitSize = unitSize
	usable := layout.UsableUnitsPerDisk(lay, unitsPerDisk)
	fds := make([]*FaultDisk, c)
	disks := make([]Disk, c)
	for i := range disks {
		fds[i] = NewFaultDisk(NewMemDisk(usable, unitSize), mk(i))
		disks[i] = fds[i]
	}
	cfg.Disks = disks
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, fds
}

func TestFaultConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFaultDisk accepted a rate of 1.0")
		}
	}()
	NewFaultDisk(NewMemDisk(4, 64), FaultConfig{TransientRate: 1.0})
}

func TestFaultDiskTornWriteLeavesMixedImage(t *testing.T) {
	const us = 64
	under := NewMemDisk(4, us)
	phys := PhysUnitSize(us)
	old := bytes.Repeat([]byte{0xAA}, phys)
	if err := under.WriteUnit(0, old); err != nil {
		t.Fatal(err)
	}
	fd := NewFaultDisk(under, FaultConfig{Seed: 7, TornWriteRate: 0.999999})
	neu := bytes.Repeat([]byte{0x55}, phys)
	err := fd.WriteUnit(0, neu)
	if err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("torn write returned %v, want an error wrapping ErrTransient", err)
	}
	got := make([]byte, phys)
	if err := under.ReadUnit(0, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, old) || bytes.Equal(got, neu) {
		t.Fatal("torn write left a clean old or new image, want a mixed one")
	}
	if got[0] != 0x55 {
		t.Fatal("torn write should persist a prefix of the new contents")
	}
	if fd.Stats().TornWrites != 1 {
		t.Fatalf("TornWrites = %d, want 1", fd.Stats().TornWrites)
	}
}

func TestFaultDiskLoseNextWrite(t *testing.T) {
	const us = 64
	under := NewMemDisk(4, us)
	phys := PhysUnitSize(us)
	old := bytes.Repeat([]byte{0xAA}, phys)
	if err := under.WriteUnit(1, old); err != nil {
		t.Fatal(err)
	}
	fd := NewFaultDisk(under, FaultConfig{})
	fd.LoseNextWrite()
	if err := fd.WriteUnit(1, bytes.Repeat([]byte{0x55}, phys)); err != nil {
		t.Fatalf("lost write must be acknowledged, got %v", err)
	}
	got := make([]byte, phys)
	if err := under.ReadUnit(1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("lost write reached the medium")
	}
	if fd.Stats().LostWrites != 1 {
		t.Fatalf("LostWrites = %d, want 1", fd.Stats().LostWrites)
	}
}

func TestTransientErrorsAreRetried(t *testing.T) {
	s, fds := faultStore(t, testLayout(t, 7, 3), 64, 512,
		func(int) FaultConfig { return FaultConfig{Seed: 42, TransientRate: 0.2} },
		Config{Retries: 6})
	fillAll(t, s, 1)
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 1)
	}
	if s.Stats().Retries == 0 {
		t.Fatal("no retries recorded despite a 20% transient rate")
	}
	var injected int64
	for _, fd := range fds {
		injected += fd.Stats().Transients
	}
	if injected == 0 {
		t.Fatal("fault disks injected no transients")
	}
}

func TestLatentSectorErrorSelfHeals(t *testing.T) {
	s, fds := faultStore(t, testLayout(t, 7, 3), 64, 512,
		func(int) FaultConfig { return FaultConfig{} }, Config{})
	fillAll(t, s, 3)
	loc := s.mapper.Loc(5)
	fds[loc.Disk].InjectLSE(loc.Offset)
	verifyUnit(t, s, 5, 3) // discovery read reconstructs and rewrites
	st := s.Stats()
	if st.MediaErrors == 0 || st.HealedUnits == 0 {
		t.Fatalf("MediaErrors=%d HealedUnits=%d, want both > 0", st.MediaErrors, st.HealedUnits)
	}
	if fds[loc.Disk].Stats().LSEHealed != 1 {
		t.Fatal("healing rewrite did not clear the latent sector")
	}
	verifyUnit(t, s, 5, 3) // now served straight from the medium
	if got := s.Stats().HealedUnits; got != st.HealedUnits {
		t.Fatalf("second read healed again (HealedUnits %d -> %d)", st.HealedUnits, got)
	}
}

func TestTransientCorruptionClearsOnReRead(t *testing.T) {
	s, _ := faultStore(t, testLayout(t, 7, 3), 64, 512,
		func(int) FaultConfig { return FaultConfig{Seed: 11, CorruptRate: 0.3} },
		Config{})
	fillAll(t, s, 9)
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 9) // corruption must never be returned
	}
}

func TestPersistentCorruptionHealsFromParity(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 2)
	// Rot a unit on the medium: valid-looking garbage with a bad trailer.
	loc := s.mapper.Loc(7)
	st := s.st.Load()
	junk := bytes.Repeat([]byte{0xDB}, s.physSize)
	if err := st.disks[loc.Disk].WriteUnit(loc.Offset, junk); err != nil {
		t.Fatal(err)
	}
	verifyUnit(t, s, 7, 2)
	stats := s.Stats()
	if stats.ChecksumErrors == 0 || stats.HealedUnits == 0 {
		t.Fatalf("ChecksumErrors=%d HealedUnits=%d, want both > 0", stats.ChecksumErrors, stats.HealedUnits)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after heal: %v", err)
	}
}

func TestRangeReadHealsDamage(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 4)
	loc := s.mapper.Loc(2)
	st := s.st.Load()
	if err := st.disks[loc.Disk].WriteUnit(loc.Offset, make([]byte, s.physSize)); err != nil {
		t.Fatal(err)
	}
	// All-zero reads as valid zeroes, so rot it with a nonzero bad image.
	junk := bytes.Repeat([]byte{1}, s.physSize)
	if err := st.disks[loc.Disk].WriteUnit(loc.Offset, junk); err != nil {
		t.Fatal(err)
	}
	n := int64(6)
	dst := make([]byte, int(n)*s.UnitSize())
	if err := s.ReadRange(0, dst); err != nil {
		t.Fatalf("ReadRange over damaged unit: %v", err)
	}
	want := make([]byte, s.UnitSize())
	for u := int64(0); u < n; u++ {
		fill(want, u, 4)
		if !bytes.Equal(dst[u*int64(s.UnitSize()):(u+1)*int64(s.UnitSize())], want) {
			t.Fatalf("range read unit %d mismatch", u)
		}
	}
	if s.Stats().HealedUnits == 0 {
		t.Fatal("range read did not heal the damaged unit")
	}
}

func TestAutoFailThreshold(t *testing.T) {
	s, fds := faultStore(t, testLayout(t, 7, 3), 64, 512,
		func(int) FaultConfig { return FaultConfig{} },
		Config{FailThreshold: 2})
	fillAll(t, s, 5)
	// Two latent sectors on one disk: each discovery is a persistent
	// error, and the second crosses the threshold.
	var units []int64
	for n := int64(0); n < s.DataUnits() && len(units) < 2; n++ {
		if s.mapper.Loc(n).Disk == 4 {
			units = append(units, n)
		}
	}
	if len(units) < 2 {
		t.Fatal("disk 4 holds fewer than two data units")
	}
	for _, n := range units {
		fds[4].InjectLSE(s.mapper.Loc(n).Offset)
		verifyUnit(t, s, n, 5)
	}
	if got := s.Mode(); got != Degraded {
		t.Fatalf("Mode = %v after threshold, want Degraded", got)
	}
	if got := s.FailedDisks(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("FailedDisks = %v, want [4]", got)
	}
	if s.Stats().AutoFails != 1 {
		t.Fatalf("AutoFails = %d, want 1", s.Stats().AutoFails)
	}
	// The store keeps serving, and the slot heals by rebuild as usual.
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 5)
	}
	if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
		t.Fatalf("Rebuild after auto-fail: %v", err)
	}
	if s.Mode() != Healthy {
		t.Fatal("store not healthy after rebuild")
	}
	if s.DiskErrors()[4] != 0 {
		t.Fatal("replacement inherited the failed slot's error score")
	}
}
