package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"declust/internal/layout"
)

// This file is the engine's only doorway to Disk backends. Every access
// goes through it so one place implements the robustness discipline:
//
//   - transient errors (ErrTransient) are retried with exponential
//     backoff, a fresh attempt drawing a fresh outcome;
//   - every read verifies the unit's checksum trailer; every write stamps
//     one — corruption can be detected, never returned;
//   - persistent failures (exhausted retries, unknown errors, confirmed
//     media/checksum damage) score against the disk, and a disk crossing
//     Config.FailThreshold is taken out of service with Fail instead of
//     being allowed to keep serving garbage;
//   - damaged units are healed where the lock held permits it: under a
//     stripe's write lock the engine reconstructs the unit from the
//     stripe's survivors and rewrites it in place.

// needsHeal reports whether a read error means the unit's content is
// damaged but potentially reconstructable (media error or checksum
// mismatch), as opposed to failed (transient storm, engine bug).
func needsHeal(err error) bool {
	if err == nil {
		return false
	}
	var bs *badSumError
	return errors.Is(err, ErrMedia) || errors.As(err, &bs)
}

// retryDelay returns the backoff before retry attempt n (0-based).
func (s *Store) retryDelay(n int) time.Duration {
	return s.retryBackoff << uint(n)
}

// scoreDiskError charges one persistent-error point against disk dn and
// auto-fails it once the threshold is crossed. Failing is best-effort: a
// store with as many failed disks as its code corrects cannot lose
// another, so the error keeps surfacing to callers instead.
func (s *Store) scoreDiskError(dn int) {
	if dn < 0 || dn >= len(s.diskErrs) {
		return
	}
	score := s.diskErrs[dn].Add(1)
	if s.failThreshold <= 0 || score < int64(s.failThreshold) {
		return
	}
	if err := s.Fail(dn); err == nil {
		s.autoFails.Add(1)
	}
}

// DiskErrors returns the cumulative persistent-error score per disk slot
// (the counter FailThreshold compares against).
func (s *Store) DiskErrors() []int64 {
	out := make([]int64, len(s.diskErrs))
	for i := range s.diskErrs {
		out[i] = s.diskErrs[i].Load()
	}
	return out
}

// readPhys reads physical unit off of disk dn (backend d) into phys and
// verifies its trailer. Transient errors retry with backoff; a checksum
// mismatch re-reads up to the same retry budget (transfer corruption
// clears on a fresh transfer, medium rot never does). The error is a
// *badSumError or wraps ErrMedia when the unit needs healing.
func (s *Store) readPhys(d Disk, dn int, off int64, phys []byte) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = d.ReadUnit(off, phys)
		if err == nil {
			if verifyTrailer(phys, s.unitSize, off) {
				return nil
			}
			err = &badSumError{disk: dn, off: off}
			if attempt < s.retries {
				continue
			}
			return err
		}
		if errors.Is(err, ErrMedia) {
			s.mediaErrs.Add(1)
			return err
		}
		if !errors.Is(err, ErrTransient) {
			if !errors.Is(err, ErrDiskFailed) {
				s.scoreDiskError(dn)
			}
			return err
		}
		if attempt >= s.retries {
			s.scoreDiskError(dn)
			return fmt.Errorf("store: disk %d unit %d: retries exhausted: %w", dn, off, err)
		}
		s.retriesDone.Add(1)
		time.Sleep(s.retryDelay(attempt))
	}
}

// writePhysRaw writes an already-stamped physical unit, retrying every
// error: a full-unit rewrite is idempotent, so even a non-transient
// failure is worth one more attempt before charging the disk.
func (s *Store) writePhysRaw(d Disk, dn int, off int64, phys []byte) error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = d.WriteUnit(off, phys); err == nil {
			return nil
		}
		if errors.Is(err, ErrDiskFailed) {
			return err // engine bug signal, not a device fault — never retried
		}
		if attempt >= s.retries {
			s.scoreDiskError(dn)
			return fmt.Errorf("store: disk %d unit %d: write retries exhausted: %w", dn, off, err)
		}
		s.retriesDone.Add(1)
		time.Sleep(s.retryDelay(attempt))
	}
}

// writeDataUnit stamps data (one logical unit) into a pooled physical
// buffer and writes it to disk dn at off.
func (s *Store) writeDataUnit(d Disk, dn int, off int64, data []byte) error {
	phys := s.getBuf()
	defer s.putBuf(phys)
	copy((*phys)[:s.unitSize], data)
	stampTrailer(*phys, s.unitSize, off)
	return s.writePhysRaw(d, dn, off, *phys)
}

// writeStamped stamps the trailer onto phys (whose first unitSize bytes
// are the data) in place and writes it — the zero-copy variant for
// engine-owned buffers.
func (s *Store) writeStamped(d Disk, dn int, off int64, phys []byte) error {
	stampTrailer(phys, s.unitSize, off)
	return s.writePhysRaw(d, dn, off, phys)
}

// gatherItem is one unit a gather reads and how it folds into the
// accumulators (code.add): a data unit by its data ordinal, parity unit i
// as ord −1−i.
type gatherItem struct {
	loc layout.Loc
	ord int
}

// damagedUnit records a unit a gather found damaged (media error or
// checksum mismatch), in ascending item order.
type damagedUnit struct {
	gatherItem
	idx int
	err error
}

// gather reads every listed unit and folds its contents into acc
// (code.add; every fold is an XOR of terms, so the result is bit-identical
// however the reads land). The reads fan out across idle I/O pool
// helpers. A hard read error aborts the gather; damaged units (needsHeal)
// are skipped and returned sorted by item index, so callers holding the
// stripe's write lock can heal them serially — healing rewrites units,
// which must never race the batch's other reads. No listed unit may be
// lost. Caller holds (at least) the stripe's read lock.
func (s *Store) gather(st *diskState, items []gatherItem, acc [maxParities][]byte) ([]damagedUnit, error) {
	if s.ioWorkers > 1 {
		return s.gatherParallel(st, items, acc)
	}
	return s.gatherSerial(st, items, acc)
}

// gatherSerial is gather in index order on the calling goroutine, building
// no closures: the serial store's gather, and the verifying read of a
// stripe sweep.
func (s *Store) gatherSerial(st *diskState, items []gatherItem, acc [maxParities][]byte) ([]damagedUnit, error) {
	var damaged []damagedUnit
	phys := s.getBuf()
	defer s.putBuf(phys)
	for i, it := range items {
		if err := s.readPhys(st.disk(it.loc), it.loc.Disk, it.loc.Offset, *phys); err != nil {
			if needsHeal(err) {
				damaged = append(damaged, damagedUnit{gatherItem: it, idx: i, err: err})
				continue
			}
			return nil, err
		}
		s.code.add(&acc, it.ord, (*phys)[:s.unitSize])
	}
	return damaged, nil
}

// gatherParallel is gather fanned out over the I/O pool, each read folded
// under a mutex. Like commitMany it stays apart so that only a fanned-out
// gather pays for the heap-allocated variables its closure captures.
func (s *Store) gatherParallel(st *diskState, items []gatherItem, acc [maxParities][]byte) ([]damagedUnit, error) {
	var mu sync.Mutex
	var damaged []damagedUnit
	err := s.fanOut(len(items), func(i int) error {
		it := items[i]
		phys := s.getBuf()
		defer s.putBuf(phys)
		if err := s.readPhys(st.disk(it.loc), it.loc.Disk, it.loc.Offset, *phys); err != nil {
			if needsHeal(err) {
				mu.Lock()
				damaged = append(damaged, damagedUnit{gatherItem: it, idx: i, err: err})
				mu.Unlock()
				return nil
			}
			return err
		}
		mu.Lock()
		s.code.add(&acc, it.ord, (*phys)[:s.unitSize])
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(damaged, func(a, b int) bool { return damaged[a].idx < damaged[b].idx })
	return damaged, nil
}

// readUnit reads unit u's data into out (one logical unit): the engine's
// one single-unit read. A readable unit is read directly; a lost unit is
// decoded from its stripe's survivors, and so is a damaged one (media
// error or persistent checksum mismatch) when heal is set. heal says the
// caller holds the stripe's WRITE lock, so damage is repaired in place
// (recoverInto). Under the read lock it is reported (needsHeal) for the
// caller to retry with the write lock.
func (s *Store) readUnit(st *diskState, u layout.Loc, out []byte, heal bool) error {
	if !st.lost(u) {
		phys := s.getBuf()
		err := s.readPhys(st.disk(u), u.Disk, u.Offset, *phys)
		if err == nil {
			copy(out, (*phys)[:s.unitSize])
		}
		s.putBuf(phys)
		if err == nil || !heal || !needsHeal(err) {
			return err
		}
		s.countHeal(err)
		s.scoreDiskError(u.Disk)
	}
	return s.recoverInto(st, u, out, heal)
}

// recoverInto decodes the contents of unit u — lost, or damaged in place
// — from the rest of its stripe into out. u and every lost unit of the
// stripe are erasures. Without heal (the caller holds the stripe's read
// lock) a damaged unit the decode runs into is returned (needsHeal). With
// heal (the write lock) it is absorbed as one more erasure while the
// code's budget of m erasures allows, and every damaged unit, u included,
// is rewritten with its decoded contents — unless a parity the decode left
// unused does not balance over the repair (see decode), which writes
// nothing. Past the budget the stripe is unrecoverable — under single
// parity, any lost or damaged sibling.
func (s *Store) recoverInto(st *diskState, u layout.Loc, out []byte, heal bool) error {
	stripe, uj := s.lay.Locate(u)
	lost, n, err := s.lostErasures(st, stripe, u, out)
	if err != nil {
		return err
	}
	list := lost[:n]
	defer func() { s.freeErasures(list) }()
	if !st.lost(u) {
		if len(list) == s.code.m {
			return fmt.Errorf("%w: %v is damaged and %d other units of its stripe are lost", ErrUnrecoverable, u, len(list))
		}
		list = append(list, erasure{gatherItem: s.unitItem(stripe, uj), out: out, heal: true})
	}
	for {
		damaged, err := s.decode(st, stripe, list)
		if err != nil {
			return err
		}
		if len(damaged) == 0 {
			break
		}
		d := damaged[0]
		if !heal {
			return d.err
		}
		if len(list) >= s.code.m {
			return fmt.Errorf("%w: %v is unreadable and its stripe already has %d erasures: %v",
				ErrUnrecoverable, d.loc, len(list), d.err)
		}
		// Budget left: absorb the damaged unit as another erasure and
		// re-solve; its reconstructed contents heal it in place below.
		s.countHeal(d.err)
		s.scoreDiskError(d.loc.Disk)
		buf := s.getBuf()
		list = append(list, erasure{gatherItem: d.gatherItem, out: (*buf)[:s.unitSize], buf: buf, heal: true})
	}
	// Rewrite each damaged unit (heals a latent sector error, replaces
	// rotted bytes). A failed rewrite is charged to the disk, but the
	// read itself has succeeded.
	for _, e := range list {
		if !e.heal {
			continue
		}
		if werr := s.writeDataUnit(st.disk(e.loc), e.loc.Disk, e.loc.Offset, e.out); werr == nil {
			s.healedUnits.Add(1)
		} else {
			s.scoreDiskError(e.loc.Disk)
		}
	}
	return nil
}

// countHeal classifies a damaged-unit cause into the stats counters.
func (s *Store) countHeal(cause error) {
	if errors.Is(cause, ErrMedia) {
		// mediaErrs was already counted at detection time in readPhys.
		return
	}
	s.checksumErrs.Add(1)
}
