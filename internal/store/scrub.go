package store

import (
	"errors"
	"fmt"
	"sync/atomic"

	"declust/internal/layout"
)

// The scrubber is the engine's background integrity sweep: it walks every
// stripe, verifies each unit's checksum trailer and the stripe's parity
// equations, and repairs what the code can repair — a damaged unit is
// reconstructed from its siblings and rewritten; a stripe whose units are
// all individually valid but whose parity does not balance (the
// lost-write signature, or a crash between data and parity commits) gets
// its parity recomputed from data, resolving the conflict in favor of
// data. The same per-stripe repair is what the write-intent recovery pass
// runs at open, just over dirty regions only.

// stripeFix reports what resyncStripe had to do to a stripe.
type stripeFix int

const (
	fixNone   stripeFix = iota // stripe verified clean
	fixUnit                    // damaged units reconstructed and rewritten
	fixParity                  // parity recomputed from data
)

// resyncStripe verifies and repairs one stripe under its write lock (or
// before the store serves traffic). No unit of the stripe may be lost.
// Damage within the code's correction power — one unit under single
// parity, two under P+Q — is repaired in place from the syndromes the
// verifying read already summed, and a parity whose equation is off over
// the repaired data is recomputed from data (the lost-write signature,
// or a crash between data and parity commits). A damaged data unit beside
// a parity equation the solve did not use, and which does not balance,
// is one more error than the code can locate: nothing is written and the
// stripe is unrecoverable, as is damage past the correction power.
func (s *Store) resyncStripe(st *diskState, stripe int64) (stripeFix, error) {
	syn, damaged, err := s.syndromes(st, stripe)
	defer s.putBufs(syn)
	if err != nil {
		return fixNone, err
	}
	if len(damaged) > s.code.m {
		return fixNone, fmt.Errorf("%w: stripe %d has %d damaged units (%v first), the code corrects %d",
			ErrUnrecoverable, stripe, len(damaged), damaged[0].loc, s.code.m)
	}
	var acc [maxParities][]byte
	for i, b := range syn {
		if b != nil {
			acc[i] = (*b)[:s.unitSize]
		}
	}

	// The damaged units are the erasures, and each parity's syndrome over
	// the valid units is exactly what the decode starts from; a parity the
	// solve leaves unused ends with its syndrome over the repaired stripe.
	var ords [maxParities]int
	for e, d := range damaged {
		ords[e] = d.ord
	}
	erased := ords[:len(damaged)]
	at := s.code.plan(erased)
	if i := s.code.solve(&acc, erased, at); i >= 0 {
		return fixNone, fmt.Errorf("%w: stripe %d: %v is damaged and parity %c does not balance over its repair",
			ErrUnrecoverable, stripe, damaged[0].loc, "PQ"[i])
	}
	var used [maxParities]bool
	for e := range erased {
		used[at[e]] = true
	}

	fix := fixNone
	for e, d := range damaged {
		s.countHeal(d.err)
		s.scoreDiskError(d.loc.Disk)
		if err := s.writeDataUnit(st.disk(d.loc), d.loc.Disk, d.loc.Offset, acc[at[e]]); err != nil {
			return fixNone, fmt.Errorf("store: rewriting damaged unit %v: %w", d.loc, err)
		}
		s.healedUnits.Add(1)
		fix = fixUnit
	}

	// Every data unit is valid now: a parity whose equation does not
	// balance — a write was lost somewhere, or a crash split a data/parity
	// commit — gets recomputed from data (the syndrome XORed into the
	// stored parity), trusting data over parity.
	for i, a := range acc {
		if a == nil || used[i] || isZero(a) {
			continue
		}
		p := layout.ParityLocOf(s.lay, stripe, i)
		phys := s.getBuf()
		err := s.readPhys(st.disk(p), p.Disk, p.Offset, *phys)
		if err == nil {
			xorInto((*phys)[:s.unitSize], a)
			if err = s.writeStamped(st.disk(p), p.Disk, p.Offset, *phys); err != nil {
				err = fmt.Errorf("store: rewriting parity %v: %w", p, err)
			}
		}
		s.putBuf(phys)
		if err != nil {
			return fixNone, err
		}
		if fix == fixNone {
			fix = fixParity
		}
	}
	return fix, nil
}

// syndromes reads every unit of stripe serially and folds it into one
// pooled accumulator per parity: afterward syn[i] holds parity i's
// syndrome — the stored parity XOR its sum over the data, zero when the
// equation balances. Damaged units are left out of the sums and returned
// in position order. No unit of the stripe may be lost.
func (s *Store) syndromes(st *diskState, stripe int64) (syn [maxParities]*[]byte, damaged []damagedUnit, err error) {
	var acc [maxParities][]byte
	for i := 0; i < s.code.m; i++ {
		syn[i] = s.getBuf()
		acc[i] = (*syn[i])[:s.unitSize]
		zeroBytes(acc[i])
	}
	items := make([]gatherItem, s.lay.G())
	for j := range items {
		items[j] = s.unitItem(stripe, j)
	}
	damaged, err = s.gatherSerial(st, items, acc)
	return syn, damaged, err
}

// stripeHasLost reports whether any unit of stripe is lost in st.
func (s *Store) stripeHasLost(st *diskState, stripe int64) bool {
	g := s.lay.G()
	for j := 0; j < g; j++ {
		if st.lost(s.lay.Unit(stripe, j)) {
			return true
		}
	}
	return false
}

// ScrubResult summarizes one Scrub sweep.
type ScrubResult struct {
	// Stripes is how many stripes were verified (and repaired if needed).
	Stripes int64
	// Skipped is how many stripes were passed over because a unit is lost
	// (their consistency is re-established by the rebuild, not the scrub).
	Skipped int64
	// UnitRepairs counts stripes whose damaged units (media errors,
	// checksum mismatches) were reconstructed from survivors and
	// rewritten — one per stripe even when a P+Q repair rewrote two
	// units (Stats().HealedUnits counts the individual units).
	UnitRepairs int64
	// ParityRewrites counts stripes whose units were all individually
	// valid but whose parity equation did not balance — the lost-write /
	// interrupted-write signature — repaired by recomputing parity from
	// data.
	ParityRewrites int64
	// Unrecoverable counts stripes whose damage the code cannot repair —
	// more damaged units than it corrects, or a damaged data unit beside
	// a parity equation that does not balance over its repair. They are
	// left as found.
	Unrecoverable int64
}

// Scrub sweeps every stripe, verifying checksums and parity and repairing
// damage in place, stripe by stripe under the stripe locks, while user
// operations continue — the background patrol read. It runs on the
// store's sweep (IOWorkers concurrent shards, each stripe verified under
// its own lock); Config.ScrubThrottle paces it at the same aggregate rate
// at any worker count. Stripes with a lost unit are skipped.
// Unrecoverable stripes are counted, left untouched, and reported in the
// returned error; all other stripes are still verified. A clean sweep (no
// unrecoverable damage) clears the engine's parity-doubt latch, letting
// Sync resume clearing intent-log regions after a mid-stripe write
// failure. Only one Scrub runs at a time.
func (s *Store) Scrub() (ScrubResult, error) {
	if !s.scrubbing.CompareAndSwap(false, true) {
		return ScrubResult{}, fmt.Errorf("store: scrub already in progress")
	}
	defer s.scrubbing.Store(false)

	var stripes, skipped, units, parity, unrec atomic.Int64
	var unrecErr lowestErr
	// A hard error (failed backend, exhausted retries) stops the whole
	// sweep; verified counts still report.
	hardErr := s.sweep(s.numStripes, s.scrubThrottle, func(stripe int64) error {
		s.locks.lock(stripe)
		defer s.locks.unlock(stripe)
		st := s.st.Load()
		if s.stripeHasLost(st, stripe) {
			skipped.Add(1)
			return nil
		}
		fix, err := s.resyncStripe(st, stripe)
		switch {
		case errors.Is(err, ErrUnrecoverable):
			unrec.Add(1)
			unrecErr.set(stripe, err)
			return nil
		case err != nil:
			return fmt.Errorf("store: scrub of stripe %d: %w", stripe, err)
		}
		stripes.Add(1)
		switch fix {
		case fixUnit:
			units.Add(1)
			s.scrubRepairs.Add(1)
		case fixParity:
			parity.Add(1)
			s.scrubFixes.Add(1)
		}
		return nil
	})
	res := ScrubResult{
		Stripes:        stripes.Load(),
		Skipped:        skipped.Load(),
		UnitRepairs:    units.Load(),
		ParityRewrites: parity.Load(),
		Unrecoverable:  unrec.Load(),
	}
	s.scrubbedStripes.Add(res.Stripes)
	if hardErr != nil {
		return res, hardErr
	}
	s.scrubs.Add(1)
	if unrecErr.err == nil {
		// Every reachable stripe verified clean (or was repaired): any
		// doubt left by an earlier failed write is resolved.
		s.parityDoubt.Store(false)
	}
	return res, unrecErr.err
}
