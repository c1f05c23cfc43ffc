package store

import (
	"bytes"
	"errors"
	"testing"

	"declust/internal/layout"
)

// stripe0Roles returns stripe 0's P unit, Q unit, and data units of a
// layout, plus the logical index of each data unit.
func stripe0Roles(t *testing.T, s *Store) (p, q layout.Loc, data []layout.Loc, idx []int64) {
	t.Helper()
	p = layout.ParityLocOf(s.lay, 0, 0)
	q = layout.ParityLocOf(s.lay, 0, 1)
	for j := 0; j < s.lay.G(); j++ {
		u := s.lay.Unit(0, j)
		if u == p || u == q {
			continue
		}
		data = append(data, u)
		idx = append(idx, -1)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		loc := s.mapper.Loc(n)
		for i, d := range data {
			if loc == d {
				idx[i] = n
			}
		}
	}
	for i, n := range idx {
		if n < 0 {
			t.Fatalf("no logical index maps to data unit %v", data[i])
		}
	}
	return p, q, data, idx
}

// rot overwrites a unit's physical block with garbage so the next read
// fails its checksum — a persisted latent sector error.
func rot(t *testing.T, s *Store, u layout.Loc) {
	t.Helper()
	st := s.st.Load()
	if err := st.disks[u.Disk].WriteUnit(u.Offset, bytes.Repeat([]byte{0xEE}, s.physSize)); err != nil {
		t.Fatal(err)
	}
}

// TestPQThreeErasuresUnrecoverable drives the decode past its budget: two
// whole-disk failures plus one rotted unit in a shared stripe put three
// erasures in that stripe, and both the damaged-data read (the store's
// own unit is unreadable with no parity left) and the lost-data read (a
// needed survivor is damaged) must report ErrUnrecoverable rather than
// return wrong bytes.
func TestPQThreeErasuresUnrecoverable(t *testing.T) {
	t.Run("both-parities-lost-data-damaged", func(t *testing.T) {
		s := newTestPQStore(t, 7, 4, 64, 512)
		fillAll(t, s, 9)
		p, q, _, idx := stripe0Roles(t, s)
		if err := s.Fail(p.Disk); err != nil {
			t.Fatal(err)
		}
		if err := s.Fail(q.Disk); err != nil {
			t.Fatal(err)
		}
		rot(t, s, s.mapper.Loc(idx[0]))
		buf := make([]byte, s.UnitSize())
		if err := s.ReadUnit(idx[0], buf); !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("ReadUnit = %v, want ErrUnrecoverable", err)
		}
		// The sibling data unit is intact and must still read.
		verifyUnit(t, s, idx[1], 9)
	})
	t.Run("lost-data-needed-survivor-damaged", func(t *testing.T) {
		s := newTestPQStore(t, 7, 4, 64, 512)
		fillAll(t, s, 9)
		p, q, data, idx := stripe0Roles(t, s)
		if err := s.Fail(data[0].Disk); err != nil {
			t.Fatal(err)
		}
		if err := s.Fail(p.Disk); err != nil {
			t.Fatal(err)
		}
		// Decoding the lost data unit now needs Q; rot it.
		rot(t, s, q)
		buf := make([]byte, s.UnitSize())
		if err := s.ReadUnit(idx[0], buf); !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("ReadUnit = %v, want ErrUnrecoverable", err)
		}
	})
}
