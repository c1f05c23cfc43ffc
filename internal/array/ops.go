package array

import (
	"fmt"

	"declust/internal/disk"
	"declust/internal/gf256"
	"declust/internal/layout"
	"declust/internal/telemetry"
)

// SetOpSpan hands the array the parent span for the next synchronous
// Read/Write/ReadRange/WriteRange call, which consumes it. The array opens
// lifecycle-phase children under it (lock wait, pre-reads, commits,
// on-the-fly reconstruction) and tags every disk transfer so the drives
// attach queue/seek/rotate/transfer segments. All of it is nil-safe: with
// no tracer the handoff is a nil store and the hot paths pay nil checks.
func (a *Array) SetOpSpan(sp *telemetry.Span) { a.opSpan = sp }

func (a *Array) takeOpSpan() *telemetry.Span {
	sp := a.opSpan
	a.opSpan = nil
	return sp
}

// xfer is one unit-sized disk transfer.
type xfer struct {
	loc   layout.Loc
	write bool
}

const (
	userPriority  = 0
	reconPriority = -1
	scrubPriority = -2
)

// Transient-timeout retries back off exponentially from retryBaseMS,
// doubling up to retryBaseMS << retryMaxShift per attempt. Retries are
// unbounded: each attempt draws an independent outcome (the injector caps
// the timeout rate at 0.9), so service terminates with probability one.
const (
	retryBaseMS   = 1.0
	retryMaxShift = 5
)

// ioPhase tracks one parallel transfer phase: the countdown of outstanding
// transfers and the media-error failures collected so far. Phases are
// pooled on the Array; the fails slice is not reused (callers may retain
// it past the phase), but fault-free phases never allocate it.
type ioPhase struct {
	a     *Array
	n     int
	fails []xfer
	done  func(fails []xfer)
}

func (a *Array) getPhase() *ioPhase {
	if n := len(a.phaseFree); n > 0 {
		ph := a.phaseFree[n-1]
		a.phaseFree = a.phaseFree[:n-1]
		return ph
	}
	return &ioPhase{a: a}
}

// finishOne retires one transfer; the last one recycles the phase before
// invoking done, so done may immediately start a new phase on the same node.
func (ph *ioPhase) finishOne() {
	ph.n--
	if ph.n > 0 {
		return
	}
	a, done, fails := ph.a, ph.done, ph.fails
	ph.done = nil
	ph.fails = nil
	a.phaseFree = append(a.phaseFree, ph)
	done(fails)
}

// ioReq wraps one in-flight disk transfer. The embedded disk.Request and
// the two bound callbacks are allocated once per pooled node, so
// steady-state transfers — including transient-timeout retries — allocate
// nothing.
type ioReq struct {
	req     disk.Request
	a       *Array
	ph      *ioPhase
	x       xfer
	target  layout.Loc
	attempt int
	retryFn func()
}

func (a *Array) getReq() *ioReq {
	if n := len(a.reqFree); n > 0 {
		r := a.reqFree[n-1]
		a.reqFree = a.reqFree[:n-1]
		return r
	}
	r := &ioReq{a: a}
	r.req.OnDone = r.complete
	r.retryFn = r.resubmit
	return r
}

// complete is every transfer's disk.Request OnDone. Timeouts retry with
// capped exponential backoff on the same node; OK and MediaError outcomes
// recycle the node and retire the transfer in its phase.
func (r *ioReq) complete(_, _ float64, st disk.Status) {
	a := r.a
	if st == disk.Timeout {
		a.fstats.Retries++
		a.mRetries.Inc()
		shift := r.attempt
		if shift > retryMaxShift {
			shift = retryMaxShift
		}
		r.attempt++
		a.eng.Schedule(retryBaseMS*float64(int64(1)<<shift), r.retryFn)
		return
	}
	ph, x := r.ph, r.x
	r.ph = nil
	a.reqFree = append(a.reqFree, r)
	if st == disk.MediaError {
		a.fstats.MediaErrors++
		ph.fails = append(ph.fails, x)
	}
	ph.finishOne()
}

func (r *ioReq) resubmit() {
	r.a.disks[r.target.Disk].Submit(&r.req)
}

// io issues a set of transfers in parallel and calls done when the last
// completes, passing the transfers that failed with a media error (always
// reads under the stock injector; empty on a clean phase). Transient
// timeouts are retried internally and never surface.
//
// Writes addressed to a failed slot with no replacement are dropped: a
// disk can fail between an operation's phases (its path was chosen while
// the disk was healthy), and a fail-stop disk simply loses the write — the
// stripe stays recoverable through the surviving write of the pair, which
// is why parity and data commit in the same phase. Reads of such a slot,
// or of a not-yet-reconstructed replacement unit, can never be correct and
// panic as driver bugs.
func (a *Array) io(xs []xfer, prio int, done func(fails []xfer)) {
	if len(xs) == 0 {
		panic("array: empty io phase")
	}
	// Consume the span set for this phase (nil when tracing is off or the
	// phase is internal): every transfer of the phase carries it, so the
	// drives know where to attach their service segments.
	sp := a.phaseSpan
	a.phaseSpan = nil
	ph := a.getPhase()
	ph.n = len(xs)
	ph.done = done
	for _, x := range xs {
		if x.loc.Disk == a.failed {
			if !x.write {
				if !a.replacement && a.spareLay == nil {
					panic(fmt.Sprintf("array: read of failed disk %d with no replacement", x.loc.Disk))
				}
				if !a.reconDone[x.loc.Offset] {
					panic(fmt.Sprintf("array: read of unreconstructed unit %v", x.loc))
				}
			} else if !a.replacement && a.spareLay == nil {
				// Dropped write to a dead disk.
				ph.finishOne()
				continue
			}
		}
		// Under distributed sparing, units of the failed disk live (or
		// will live) in their stripes' spare slots on survivors.
		a.submitIO(x, a.phys(x.loc), prio, ph, sp)
	}
}

// submitIO issues one transfer to its resolved target. The target is
// resolved once: a retry lands on the same drive slot the operation chose,
// even if the array's failure state moved underneath it (the enclosing
// phase's drop/panic rules already ran).
func (a *Array) submitIO(x xfer, target layout.Loc, prio int, ph *ioPhase, sp *telemetry.Span) {
	r := a.getReq()
	r.ph = ph
	r.x = x
	r.target = target
	r.attempt = 0
	r.req.Start = a.unitSector(target.Offset)
	r.req.Count = a.cfg.UnitSectors
	r.req.Write = x.write
	r.req.Priority = prio
	r.req.Span = sp // always stored: pooled nodes must not leak stale spans
	a.disks[target.Disk].Submit(&r.req)
}

// reads builds read transfers for a set of locations.
func reads(locs []layout.Loc) []xfer {
	xs := make([]xfer, len(locs))
	for i, l := range locs {
		xs[i] = xfer{loc: l}
	}
	return xs
}

// writesOf builds write transfers for a set of locations.
func writesOf(locs []layout.Loc) []xfer {
	xs := make([]xfer, len(locs))
	for i, l := range locs {
		xs[i] = xfer{loc: l, write: true}
	}
	return xs
}

// newValue mints a fresh distinct content word for a user write.
func (a *Array) newValue() uint64 {
	a.writeSeq++
	return splitmix64(a.writeSeq | 1<<63)
}

// xorUnits XORs the current contents of a set of units.
func (a *Array) xorUnits(locs []layout.Loc) uint64 {
	var v uint64
	for _, l := range locs {
		v ^= a.unitVal(l)
	}
	return v
}

// maxParities bounds a stripe's parity units: New accepts layouts with 1
// (P) or 2 (P+Q).
const maxParities = 2

// termOf is parity k's term for a data unit of data ordinal d holding v:
// parity k carries coefficient g^(k·d), so P's term is v itself and Q's
// is g^d·v.
func termOf(k, d int, v uint64) uint64 {
	if k == 0 {
		return v
	}
	return gf256.MulWord(gf256.Exp(k*d), v)
}

// ordinal returns data unit loc's data ordinal within stripe.
func (a *Array) ordinal(stripe int64, loc layout.Loc) int {
	_, j := a.lay.Locate(loc)
	return layout.DataOrdinal(a.lay, stripe, j)
}

// foldTerms XORs the terms of data unit loc of stripe, holding v, into
// every parity word of par. Only parities past P need the unit's ordinal.
func (a *Array) foldTerms(par *[maxParities]uint64, stripe int64, loc layout.Loc, v uint64) {
	par[0] ^= v
	for k := 1; k < a.parities; k++ {
		par[k] ^= termOf(k, a.ordinal(stripe, loc), v)
	}
}

// parityIndex returns which parity unit position j of stripe holds, or −1
// for a data unit.
func (a *Array) parityIndex(stripe int64, j int) int {
	for k := 0; k < a.parities; k++ {
		if j == layout.ParityPosOf(a.lay, stripe, k) {
			return k
		}
	}
	return -1
}

// reconSources returns the units to read to reconstruct loc's contents.
// A lost data unit decodes through P — the XOR of the stripe's other data
// units and P — and a lost parity unit is recomputed from the data units,
// so a stripe's other parities are never read: single parity reads every
// other unit of the stripe, dual parity G−2 of them.
func (a *Array) reconSources(loc layout.Loc) []layout.Loc {
	stripe, jLost := a.lay.Locate(loc)
	lostParity := a.parityIndex(stripe, jLost) >= 0
	g := a.lay.G()
	out := make([]layout.Loc, 0, g-1)
	for j := 0; j < g; j++ {
		if j == jLost {
			continue
		}
		if k := a.parityIndex(stripe, j); k > 0 || (k == 0 && lostParity) {
			continue
		}
		out = append(out, a.lay.Unit(stripe, j))
	}
	return out
}

// reconValue computes loc's contents from its reconSources: the XOR of
// the sources for a data or P unit (P's coefficients are all one), or —
// for another parity unit — its sum over the stripe's data units.
func (a *Array) reconValue(loc layout.Loc, srcs []layout.Loc) uint64 {
	stripe, j := a.lay.Locate(loc)
	if k := a.parityIndex(stripe, j); k > 0 {
		var par [maxParities]uint64
		for _, u := range srcs {
			a.foldTerms(&par, stripe, u, a.unitVal(u))
		}
		return par[k]
	}
	return a.xorUnits(srcs)
}

// dataUnitsOf returns the stripe's data unit locations excluding `except`
// (pass an invalid Loc to keep all).
func (a *Array) dataUnitsOf(stripe int64, except layout.Loc) []layout.Loc {
	g := a.lay.G()
	out := make([]layout.Loc, 0, g-1)
	for j := 0; j < g; j++ {
		if layout.IsParityPos(a.lay, stripe, j) {
			continue
		}
		u := a.lay.Unit(stripe, j)
		if u != except {
			out = append(out, u)
		}
	}
	return out
}

// userOp tracks one user Read or Write through its phases. Nodes are
// pooled on the Array with every stage continuation pre-bound, so the
// fault-free request paths allocate nothing in steady state. Degraded-mode
// and repair paths still build ad-hoc closures — they are rare and
// latency-bound, not allocation-bound.
type userOp struct {
	a         *Array
	unit      int64
	loc       layout.Loc
	stripe    int64
	other     layout.Loc // small-write companion data unit
	value     uint64
	otherData uint64 // small-write companion's data
	oldData   uint64 // read-modify-write pre-read
	// The parity units a write maintains, P first: every available one of
	// the stripe's parities, with index pk[r] and location ploc[r] for
	// r < np, and their read-modify-write pre-reads and new contents.
	np        int
	pk        [maxParities]int
	ploc      [maxParities]layout.Loc
	oldPar    [maxParities]uint64
	newPar    [maxParities]uint64
	readDone  func(value uint64)
	writeDone func()
	span      *telemetry.Span       // root span handed over by the caller; nil when off
	phase     *telemetry.Span       // open lifecycle-phase child, ended by the stage that retires it
	xs        [1 + maxParities]xfer // phase transfer buffer; consumed synchronously by io

	// Stage continuations, bound once per node.
	readPlainFn   func([]xfer)
	writeLockedFn func()
	mirrorDoneFn  func([]xfer)
	swPreFn       func([]xfer)
	swRepairedFn  func()
	swCommitFn    func([]xfer)
	rmwPreFn      func([]xfer)
	rmwRepairedFn func()
	rmwCommitFn   func([]xfer)
	lostParityFn  func([]xfer)
	finishFn      func()
}

func (a *Array) getOp() *userOp {
	if n := len(a.opFree); n > 0 {
		op := a.opFree[n-1]
		a.opFree = a.opFree[:n-1]
		return op
	}
	op := &userOp{a: a}
	op.readPlainFn = op.readPlain
	op.writeLockedFn = op.writeLocked
	op.mirrorDoneFn = op.mirrorDone
	op.swPreFn = op.swPre
	op.swRepairedFn = op.swRepaired
	op.swCommitFn = op.swCommit
	op.rmwPreFn = op.rmwPre
	op.rmwRepairedFn = op.rmwRepaired
	op.rmwCommitFn = op.rmwCommit
	op.lostParityFn = op.lostParity
	op.finishFn = op.finish
	return op
}

func (a *Array) putOp(op *userOp) {
	op.readDone = nil
	op.writeDone = nil
	op.span = nil
	op.phase = nil
	a.opFree = append(a.opFree, op)
}

// Read performs a user read of one data unit, invoking done with the value
// read. In degraded mode, reads of lost units reconstruct on the fly;
// under the Redirect algorithms, reads of already-reconstructed units go
// to the replacement disk.
func (a *Array) Read(unit int64, done func(value uint64)) {
	if unit < 0 || unit >= a.dataUnits {
		panic(fmt.Sprintf("array: data unit %d out of range [0,%d)", unit, a.dataUnits))
	}
	a.mUserReads.Inc()
	sp := a.takeOpSpan()
	loc := a.mapper.Loc(unit)
	if loc.Disk != a.failed || a.redirectableRead(loc) {
		op := a.getOp()
		op.loc = loc
		op.readDone = done
		op.span = sp
		op.xs[0] = xfer{loc: loc}
		a.phaseSpan = sp // segments attach to the root: one phase only
		a.io(op.xs[:1], userPriority, op.readPlainFn)
		return
	}
	// On-the-fly reconstruction under the stripe lock: a consistent
	// multi-unit read that must not interleave with parity updates.
	stripe, _ := a.lay.Locate(loc)
	lockSp := sp.Child(telemetry.PhaseLockWait, a.eng.Now())
	a.locks.acquire(stripe, func() {
		lockSp.End(a.eng.Now())
		// Re-evaluate: reconstruction or healing may have happened
		// while waiting for the lock.
		if loc.Disk != a.failed || a.redirectableRead(loc) {
			a.phaseSpan = sp
			a.io([]xfer{{loc: loc}}, userPriority, func(fails []xfer) {
				a.repairThen(stripe, fails, userPriority, func() {
					a.locks.release(stripe)
					done(a.unitVal(loc))
				})
			})
			return
		}
		surv := a.reconSources(loc)
		a.mOTFRecons.Inc()
		otf := sp.Child(telemetry.PhaseOTF, a.eng.Now())
		a.phaseSpan = otf
		a.io(reads(surv), userPriority, func(fails []xfer) {
			// An unreadable survivor means the lost unit is really gone
			// (two dead units in the stripe): repairThen records the
			// loss and restores out of band; the value read below is
			// the model's, standing in for the backup's.
			a.repairThen(stripe, fails, userPriority, func() {
				value := a.reconValue(loc, surv)
				otf.End(a.eng.Now())
				if a.cfg.Algorithm == RedirectPiggyback && (a.replacement || a.spareLay != nil) && !a.reconDone[loc.Offset] {
					// The user's data is ready now; the piggybacked
					// write to the replacement continues under the
					// stripe lock. Its span is a fresh root: the user's
					// response does not include it.
					done(value)
					pg := a.spans.Root(telemetry.PhasePiggyback, telemetry.KindRecon, unit, a.eng.Now())
					a.phaseSpan = pg
					a.io([]xfer{{loc: loc, write: true}}, userPriority, func(_ []xfer) {
						a.setUnitVal(loc, value)
						a.markReconstructed(loc.Offset)
						pg.End(a.eng.Now())
						a.locks.release(stripe)
					})
					return
				}
				a.locks.release(stripe)
				done(value)
			})
		})
	})
}

// readPlain completes the direct-read path. The clean case recycles the
// node before answering; the media-error case falls back to closures for
// the repair (rare, and its latency is dominated by disk accesses anyway).
func (op *userOp) readPlain(fails []xfer) {
	a, loc, done := op.a, op.loc, op.readDone
	a.putOp(op)
	if len(fails) == 0 {
		done(a.unitVal(loc))
		return
	}
	// Latent sector error: recover under the stripe lock (the repair
	// updates the platter, racing parity writers), then answer — the
	// user's latency includes the recovery.
	stripe, _ := a.lay.Locate(loc)
	a.locks.acquire(stripe, func() {
		a.repairLocked(stripe, fails, userPriority, func() {
			a.locks.release(stripe)
			done(a.unitVal(loc))
		})
	})
}

// redirectableRead reports whether a read of a lost unit may be serviced
// directly from its reconstructed copy (replacement disk or spare unit).
// During recovery only the Redirect algorithms do so; once a distributed-
// sparing reconstruction has completed, every algorithm serves spared
// units directly — recovery is over.
func (a *Array) redirectableRead(loc layout.Loc) bool {
	if !a.reconDone[loc.Offset] {
		return false
	}
	if a.spared {
		return true
	}
	return (a.replacement || a.spareLay != nil) &&
		(a.cfg.Algorithm == Redirect || a.cfg.Algorithm == RedirectPiggyback)
}

// Write performs a user write of one data unit, invoking done when the
// array has committed data and parity. All writes serialize on their
// stripe's lock because they read-modify-write the shared parity unit.
func (a *Array) Write(unit int64, done func()) {
	if unit < 0 || unit >= a.dataUnits {
		panic(fmt.Sprintf("array: data unit %d out of range [0,%d)", unit, a.dataUnits))
	}
	a.mUserWrites.Inc()
	op := a.getOp()
	op.unit = unit
	op.loc = a.mapper.Loc(unit)
	op.stripe, _ = a.lay.Locate(op.loc)
	op.value = a.newValue()
	op.writeDone = done
	op.span = a.takeOpSpan()
	op.phase = op.span.Child(telemetry.PhaseLockWait, a.eng.Now())
	a.locks.acquire(op.stripe, op.writeLockedFn)
}

// finish releases the stripe lock, recycles the node and delivers the
// write completion, closing whatever lifecycle phase was still open.
func (op *userOp) finish() {
	a, done := op.a, op.writeDone
	op.phase.End(a.eng.Now())
	a.locks.release(op.stripe)
	a.putOp(op)
	done()
}

// writeLocked chooses the write path with the stripe lock held, so the
// failure state it sees cannot change under it. Under the one-failed-disk
// model at most one unit of the stripe is unavailable (layout criterion
// 1), so the cases are: everything available, the data unit lost (fold
// into the parities), or a parity lost (maintain the survivors).
func (op *userOp) writeLocked() {
	a := op.a
	op.phase.End(a.eng.Now()) // lock wait is over
	op.phase = nil
	op.np = 0
	for k := 0; k < a.parities; k++ {
		if u := layout.ParityLocOf(a.lay, op.stripe, k); a.available(u) {
			op.pk[op.np], op.ploc[op.np] = k, u
			op.np++
		}
	}
	switch {
	case !a.available(op.loc):
		op.phase = op.span.Child(telemetry.PhaseFold, a.eng.Now())
		a.writeLostData(op.unit, op.loc, op.stripe, op.value, op.phase, op.finishFn)
	case op.np == a.parities:
		op.writeNormal()
	case op.np > 0:
		// One of P and Q lost: delta-update the survivor alongside the
		// data write; the lost parity is recomputed when the sweep
		// reaches it.
		op.rmw()
	default:
		// Parity is lost and not reconstructed: there is no value in
		// updating it, so the write is a single data access (§7); the
		// parity unit will be recomputed from data when its turn in
		// the sweep comes.
		op.phase = op.span.Child(telemetry.PhaseDataWrite, a.eng.Now())
		op.xs[0] = xfer{loc: op.loc, write: true}
		a.phaseSpan = op.phase
		a.io(op.xs[:1], userPriority, op.lostParityFn)
	}
}

func (op *userOp) lostParity(_ []xfer) {
	op.a.setUnitVal(op.loc, op.value)
	op.a.expected[op.unit] = op.value
	op.finish()
}

// writeNormal is the fault-free path, also used when the touched units are
// already reconstructed on the replacement: the read-modify-write, or the
// three-access small-write when the stripe has exactly three units and
// the third is a readable data unit.
func (op *userOp) writeNormal() {
	a := op.a
	if a.lay.G() == 2 {
		// Mirroring degenerate: the parity unit is a copy of the data
		// unit, so the write is two plain writes with no pre-reads —
		// the G=2 declustered layout behaves as declustered mirroring
		// (Copeland & Keller's interleaved declustering, §3).
		op.phase = op.span.Child(telemetry.PhaseMirror, a.eng.Now())
		op.xs[0] = xfer{loc: op.loc, write: true}
		op.xs[1] = xfer{loc: op.ploc[0], write: true}
		a.phaseSpan = op.phase
		a.io(op.xs[:2], userPriority, op.mirrorDoneFn)
		return
	}
	// Contents feeding parity computations are sampled when the reads
	// are submitted, not when they complete: the stripe lock guarantees
	// no writer changes them in flight, while a concurrent Replace()
	// swaps the failed slot's content array and would otherwise make a
	// completion-time sample read fresh zeros instead of what the
	// platter returned.
	if a.cfg.SmallWriteOpt && a.lay.G() == 3 {
		others := a.dataUnitsOf(op.stripe, op.loc)
		if len(others) == 1 && a.available(others[0]) {
			op.other = others[0]
			op.otherData = a.unitVal(op.other)
			// Overlap the companion read with the data write, then
			// write parity computed from the two new values.
			op.phase = op.span.Child(telemetry.PhaseSWPreread, a.eng.Now())
			op.xs[0] = xfer{loc: op.other}
			op.xs[1] = xfer{loc: op.loc, write: true}
			a.phaseSpan = op.phase
			a.io(op.xs[:2], userPriority, op.swPreFn)
			return
		}
	}
	op.rmw()
}

func (op *userOp) mirrorDone(_ []xfer) {
	a := op.a
	a.setUnitVal(op.loc, op.value)
	a.setUnitVal(op.ploc[0], op.value)
	a.expected[op.unit] = op.value
	op.finish()
}

func (op *userOp) swPre(fails []xfer) {
	op.a.repairThen(op.stripe, fails, userPriority, op.swRepairedFn)
}

func (op *userOp) swRepaired() {
	a := op.a
	op.phase.End(a.eng.Now())
	op.phase = op.span.Child(telemetry.PhaseSWCommit, a.eng.Now())
	a.setUnitVal(op.loc, op.value)
	a.expected[op.unit] = op.value
	op.newPar[0] = op.value ^ op.otherData
	op.xs[0] = xfer{loc: op.ploc[0], write: true}
	a.phaseSpan = op.phase
	a.io(op.xs[:1], userPriority, op.swCommitFn)
}

func (op *userOp) swCommit(_ []xfer) {
	op.a.setUnitVal(op.ploc[0], op.newPar[0])
	op.finish()
}

// rmw pre-reads the old data and the op's parity units, then overwrites
// all of them — transfers data, P, Q in that order: the four-access small
// write under single parity, six under P+Q, four against the survivor when
// one of P and Q is lost.
func (op *userOp) rmw() {
	a := op.a
	op.phase = op.span.Child(telemetry.PhasePreread, a.eng.Now())
	op.oldData = a.unitVal(op.loc)
	op.xs[0] = xfer{loc: op.loc}
	for r := 0; r < op.np; r++ {
		op.oldPar[r] = a.unitVal(op.ploc[r])
		op.xs[1+r] = xfer{loc: op.ploc[r]}
	}
	a.phaseSpan = op.phase
	a.io(op.xs[:1+op.np], userPriority, op.rmwPreFn)
}

func (op *userOp) rmwPre(fails []xfer) {
	op.a.repairThen(op.stripe, fails, userPriority, op.rmwRepairedFn)
}

func (op *userOp) rmwRepaired() {
	a := op.a
	op.phase.End(a.eng.Now())
	op.phase = op.span.Child(telemetry.PhaseCommit, a.eng.Now())
	var delta [maxParities]uint64
	a.foldTerms(&delta, op.stripe, op.loc, op.oldData^op.value)
	op.xs[0] = xfer{loc: op.loc, write: true}
	for r := 0; r < op.np; r++ {
		op.newPar[r] = op.oldPar[r] ^ delta[op.pk[r]]
		op.xs[1+r] = xfer{loc: op.ploc[r], write: true}
	}
	a.phaseSpan = op.phase
	a.io(op.xs[:1+op.np], userPriority, op.rmwCommitFn)
}

func (op *userOp) rmwCommit(_ []xfer) {
	a := op.a
	a.setUnitVal(op.loc, op.value)
	for r := 0; r < op.np; r++ {
		a.setUnitVal(op.ploc[r], op.newPar[r])
	}
	a.expected[op.unit] = op.value
	op.finish()
}

// writeLostData handles a write whose data unit is on the failed slot and
// not yet reconstructed. Under Baseline (or with no replacement installed)
// the write folds into the parity units: each absorbs the new data so a
// later sweep reconstructs the new value. Under the other algorithms the
// new data also goes directly to the replacement, which counts as
// reconstruction.
func (a *Array) writeLostData(unit int64, loc layout.Loc, stripe int64, value uint64, sp *telemetry.Span, finish func()) {
	others := a.dataUnitsOf(stripe, loc) // surviving data units
	toReplacement := (a.replacement || a.spareLay != nil) && a.cfg.Algorithm != Baseline
	var plocs [maxParities]layout.Loc
	for k := 0; k < a.parities; k++ {
		plocs[k] = layout.ParityLocOf(a.lay, stripe, k)
	}
	// fold commits the parities with the new value folded in (and the
	// value itself to the replacement, when it goes there).
	fold := func() {
		var par [maxParities]uint64
		for _, u := range others {
			a.foldTerms(&par, stripe, u, a.unitVal(u))
		}
		a.foldTerms(&par, stripe, loc, value)
		a.phaseSpan = sp
		xs := make([]xfer, 0, a.parities+1)
		for k := 0; k < a.parities; k++ {
			xs = append(xs, xfer{loc: plocs[k], write: true})
		}
		if toReplacement {
			xs = append(xs, xfer{loc: loc, write: true})
		}
		a.io(xs, userPriority, func(_ []xfer) {
			for k := 0; k < a.parities; k++ {
				a.setUnitVal(plocs[k], par[k])
			}
			if toReplacement {
				a.setUnitVal(loc, value)
			}
			a.expected[unit] = value
			if toReplacement {
				a.markReconstructed(loc.Offset)
			}
			finish()
		})
	}
	if len(others) == 0 {
		// No surviving data beside the lost unit: G = 2 (mirroring
		// degenerate, parity is the lost unit's twin) or G = 3 dual parity
		// (P and Q encode the single data unit directly).
		fold()
		return
	}
	a.phaseSpan = sp
	a.io(reads(others), userPriority, func(fails []xfer) {
		// A failed survivor read: the stripe has two dead units, so the
		// value being folded into parity rests on a loss; repairThen
		// records it and restores before the fold continues.
		a.repairThen(stripe, fails, userPriority, fold)
	})
}
