package store

import (
	"fmt"
	"sync/atomic"

	"declust/internal/layout"
)

// rangeScratch holds one range-write stripe job's reusable slices,
// recycled through Store.scratch so concurrent jobs don't allocate.
type rangeScratch struct {
	locs  []layout.Loc
	datas [][]byte
}

// ReadRange reads the logical data units [start, start+len(dst)/UnitSize)
// into dst, taking each stripe's lock once for all of its units.
func (s *Store) ReadRange(start int64, dst []byte) error {
	return s.rangeOp(start, dst, &s.reads, s.readStripeSpan)
}

// WriteRange writes src over the logical data units starting at start,
// one parity update per touched stripe. A segment covering a whole stripe
// uses the large-write optimization (parity from the new contents, no
// pre-reads); partial segments read-modify-write.
func (s *Store) WriteRange(start int64, src []byte) error {
	return s.rangeOp(start, src, &s.writes, s.writeStripeSpan)
}

// rangeOp is the range driver: it checks the request, splits it by
// stripe, and runs job once per touched stripe over that stripe's units
// [lo, hi) of the request and their window of buf. Each stripe is an
// independent job — its window is disjoint and it takes only its own
// stripe's lock — so multi-stripe ranges
// fan out across idle I/O workers, with the first error (lowest stripe)
// cancelling unstarted jobs. A request that completes adds its unit count
// to done.
func (s *Store) rangeOp(start int64, buf []byte, done *atomic.Int64, job func(stripe, lo, hi int64, buf []byte) error) error {
	if len(buf) == 0 || len(buf)%s.unitSize != 0 {
		return fmt.Errorf("store: range buffer of %d bytes is not a positive multiple of the %d-byte unit size",
			len(buf), s.unitSize)
	}
	n := int64(len(buf) / s.unitSize)
	if start < 0 || start+n > s.dataUnits {
		return fmt.Errorf("store: units [%d,%d) out of range [0,%d)", start, start+n, s.dataUnits)
	}
	per, us := s.dataPerStripe, int64(s.unitSize)
	first := start / per
	segs := int((start+n-1)/per - first + 1)
	var err error
	if segs == 1 {
		err = job(first, start, start+n, buf)
	} else {
		err = s.fanOut(segs, func(i int) error {
			stripe := first + int64(i)
			lo, hi := max(stripe*per, start), min((stripe+1)*per, start+n)
			return job(stripe, lo, hi, buf[(lo-start)*us:(hi-start)*us])
		})
	}
	if err != nil {
		return err
	}
	done.Add(n)
	return nil
}

// readStripeSpan reads the units [lo, hi) — all belonging to stripe —
// into dst, whose first byte corresponds to unit lo. Units are
// read under the stripe's read lock; a damaged unit is repaired under the
// write lock and the sweep resumes after it.
func (s *Store) readStripeSpan(stripe, lo, hi int64, dst []byte) error {
	us := int64(s.unitSize)
	for u := lo; u < hi; {
		healU := int64(-1)
		var healLoc layout.Loc
		var err error
		s.locks.rlock(stripe)
		for ; u < hi && err == nil; u++ {
			loc := s.mapper.Loc(u)
			err = s.readLocked(stripe, loc, dst[(u-lo)*us:(u-lo+1)*us])
			if needsHeal(err) {
				healU, healLoc = u, loc
			}
		}
		s.locks.runlock(stripe)
		if healU >= 0 {
			if err = s.healRead(stripe, healLoc, dst[(healU-lo)*us:(healU-lo+1)*us]); err != nil {
				return err
			}
			u = healU + 1
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeStripeSpan commits the units [lo, hi) — all belonging to stripe —
// from src, whose first byte corresponds to unit lo, as one
// parity update under the stripe's write lock.
func (s *Store) writeStripeSpan(stripe, lo, hi int64, src []byte) error {
	sc := s.scratch.Get().(*rangeScratch)
	defer s.scratch.Put(sc)
	locs, datas := sc.locs[:0], sc.datas[:0]
	us := int64(s.unitSize)
	for v := lo; v < hi; v++ {
		locs = append(locs, s.mapper.Loc(v))
		datas = append(datas, src[(v-lo)*us:(v-lo+1)*us])
	}
	sc.locs, sc.datas = locs, datas
	s.locks.lock(stripe)
	err := s.writeStripeLocked(stripe, locs, datas)
	s.locks.unlock(stripe)
	return err
}
