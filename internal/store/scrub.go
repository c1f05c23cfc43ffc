package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	fixUnit                    // one damaged unit reconstructed and rewritten
	fixParity                  // parity recomputed from data
)

// resyncStripe verifies and repairs one stripe under its write lock (or
// before the store serves traffic). No unit of the stripe may be lost.
// Damage within the code's correction power — one unit under single
// parity, two under P+Q — is repaired in place from the syndromes the
// verifying read already summed; anything beyond is unrecoverable.
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

	if len(damaged) > 0 {
		// The damaged units are the erasures, and each parity's syndrome
		// over the valid units is exactly what the decode starts from.
		var ords [maxParities]int
		for e, d := range damaged {
			ords[e] = d.ord
		}
		at := s.code.plan(ords[:len(damaged)])
		s.code.solve(&acc, ords[:len(damaged)], at)
		for e, d := range damaged {
			s.countHeal(d.err)
			s.scoreDiskError(d.loc.Disk)
			if err := s.writeDataUnit(st.disk(d.loc), d.loc.Disk, d.loc.Offset, acc[at[e]]); err != nil {
				return fixNone, fmt.Errorf("store: rewriting damaged unit %v: %w", d.loc, err)
			}
			s.healedUnits.Add(1)
		}
		return fixUnit, nil
	}

	// All units individually valid: every parity equation must balance.
	// One that does not — a write was lost somewhere, or a crash split a
	// data/parity commit — gets its parity recomputed from data (the
	// syndrome XORed into the stored parity), trusting data over parity.
	fix := fixNone
	for i, a := range acc {
		if a == nil || isZero(a) {
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
		fix = fixParity
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

// isUnrecoverable reports data loss the code cannot repair.
func isUnrecoverable(err error) bool { return errors.Is(err, ErrUnrecoverable) }

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
	// Unrecoverable counts stripes with two or more damaged units, which
	// single-failure parity cannot repair. They are left as found.
	Unrecoverable int64
}

// scrubShard is one worker's slice of a Scrub sweep.
type scrubShard struct {
	res     ScrubResult
	unrec   error // first unrecoverable-stripe error in this shard
	hardErr error // hard error that stopped the sweep, nil if none
	hardAt  int64 // stripe the hard error struck
}

// Scrub sweeps every stripe, verifying checksums and parity and repairing
// damage in place, stripe by stripe under the stripe locks, while user
// operations continue — the background patrol read. The sweep is split
// into Config.RebuildWorkers contiguous shards scrubbed concurrently
// (each stripe still verified under its own lock); Config.ScrubThrottle
// paces the sweep in aggregate — each worker sleeps workers× the
// configured pause, so the knob means the same wall-clock sweep rate at
// any worker count. Stripes with a lost unit are skipped. Unrecoverable
// stripes are counted, left untouched, and reported in the returned
// error; all other stripes are still verified. A clean sweep (no
// unrecoverable damage) clears the engine's parity-doubt latch, letting
// Sync resume clearing intent-log regions after a mid-stripe write
// failure. Only one Scrub runs at a time.
func (s *Store) Scrub() (ScrubResult, error) {
	if !s.scrubbing.CompareAndSwap(false, true) {
		return ScrubResult{}, fmt.Errorf("store: scrub already in progress")
	}
	defer s.scrubbing.Store(false)

	workers := s.rebuildWorkers
	if int64(workers) > s.numStripes {
		workers = int(s.numStripes)
	}
	shards := make([]scrubShard, workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := s.numStripes * int64(w) / int64(workers)
		hi := s.numStripes * int64(w+1) / int64(workers)
		wg.Add(1)
		go func(o *scrubShard, lo, hi int64) {
			defer wg.Done()
			for stripe := lo; stripe < hi && !stop.Load(); stripe++ {
				s.locks.lock(stripe)
				st := s.st.Load()
				if s.stripeHasLost(st, stripe) {
					o.res.Skipped++
					s.locks.unlock(stripe)
					continue
				}
				fix, err := s.resyncStripe(st, stripe)
				s.locks.unlock(stripe)
				switch {
				case err == nil:
					o.res.Stripes++
					switch fix {
					case fixUnit:
						o.res.UnitRepairs++
						s.scrubRepairs.Add(1)
					case fixParity:
						o.res.ParityRewrites++
						s.scrubFixes.Add(1)
					}
				case isUnrecoverable(err):
					o.res.Unrecoverable++
					if o.unrec == nil {
						o.unrec = err
					}
				default:
					// A hard error (failed backend, exhausted retries)
					// stops the whole sweep; verified counts still report.
					o.hardErr = fmt.Errorf("store: scrub of stripe %d: %w", stripe, err)
					o.hardAt = stripe
					stop.Store(true)
					return
				}
				if s.scrubThrottle > 0 {
					time.Sleep(s.scrubThrottle * time.Duration(workers))
				}
			}
		}(&shards[w], lo, hi)
	}
	wg.Wait()

	var res ScrubResult
	var firstErr, hardErr error
	hardAt := int64(-1)
	for w := range shards {
		o := &shards[w]
		res.Stripes += o.res.Stripes
		res.Skipped += o.res.Skipped
		res.UnitRepairs += o.res.UnitRepairs
		res.ParityRewrites += o.res.ParityRewrites
		res.Unrecoverable += o.res.Unrecoverable
		if o.unrec != nil && firstErr == nil {
			firstErr = o.unrec // shards ascend, so this is the lowest shard's first
		}
		if o.hardErr != nil && (hardAt < 0 || o.hardAt < hardAt) {
			hardErr, hardAt = o.hardErr, o.hardAt
		}
	}
	s.scrubbedStripes.Add(res.Stripes)
	if hardErr != nil {
		return res, hardErr
	}
	s.scrubs.Add(1)
	if firstErr == nil {
		// Every reachable stripe verified clean (or was repaired): any
		// doubt left by an earlier failed write is resolved.
		s.parityDoubt.Store(false)
	}
	return res, firstErr
}
