package array

import (
	"fmt"

	"declust/internal/layout"
	"declust/internal/telemetry"
)

// Range operations: multi-unit user accesses. The paper's simulations use
// 4 KB (single-unit) accesses, but its §4.1 criteria 5 and 6 exist for the
// sake of larger ones: a write covering a whole parity stripe needs no
// pre-reads (large-write optimization), and a read of C consecutive units
// wants C distinct disks (maximal parallelism). These paths make both
// effects measurable.

// stripeGroup collects the portion of a range that falls in one parity
// stripe.
type stripeGroup struct {
	stripe int64
	units  []int64      // logical data units
	locs   []layout.Loc // their stripe units, parallel to units
}

// groupByStripe splits [unit, unit+count) by owning parity stripe,
// preserving encounter order.
func (a *Array) groupByStripe(unit int64, count int) []stripeGroup {
	order := make(map[int64]int)
	var groups []stripeGroup
	for n := unit; n < unit+int64(count); n++ {
		loc := a.mapper.Loc(n)
		s, _ := a.lay.Locate(loc)
		i, ok := order[s]
		if !ok {
			i = len(groups)
			order[s] = i
			groups = append(groups, stripeGroup{stripe: s})
		}
		groups[i].units = append(groups[i].units, n)
		groups[i].locs = append(groups[i].locs, loc)
	}
	return groups
}

// join invokes done after n sub-completions.
func join(n int, done func()) func() {
	if n <= 0 {
		panic("array: join of zero parts")
	}
	return func() {
		n--
		if n == 0 {
			done()
		}
	}
}

// ReadRange reads count consecutive logical data units starting at unit,
// invoking done when all are available. Healthy units are read directly
// (in parallel across disks); lost units reconstruct on the fly exactly as
// single-unit reads do.
func (a *Array) ReadRange(unit int64, count int, done func()) {
	a.checkRange(unit, count)
	sp := a.takeOpSpan()
	groups := a.groupByStripe(unit, count)
	part := join(len(groups), done)
	for _, grp := range groups {
		grp := grp
		var direct []layout.Loc
		lost := int64(-1)
		for _, loc := range grp.locs {
			if loc.Disk != a.failed || a.redirectableRead(loc) {
				direct = append(direct, loc)
			} else {
				lost = a.mapper.Index(grp.stripe, a.posOf(loc, grp.stripe))
			}
		}
		sub := 0
		if len(direct) > 0 {
			sub++
		}
		if lost >= 0 {
			sub++
		}
		grpDone := join(sub, part)
		if len(direct) > 0 {
			a.phaseSpan = sp
			a.io(reads(direct), userPriority, func(fails []xfer) {
				if len(fails) == 0 {
					grpDone()
					return
				}
				a.locks.acquire(grp.stripe, func() {
					a.repairLocked(grp.stripe, fails, userPriority, func() {
						a.locks.release(grp.stripe)
						grpDone()
					})
				})
			})
		}
		if lost >= 0 {
			// At most one unit per stripe can be lost; reuse the
			// single-unit degraded read path (locking, redirection,
			// piggybacking included). Its phases nest under this
			// range's root span.
			a.SetOpSpan(sp)
			a.Read(lost, func(uint64) { grpDone() })
		}
	}
}

// posOf returns loc's position within stripe s.
func (a *Array) posOf(loc layout.Loc, s int64) int {
	s2, j := a.lay.Locate(loc)
	if s2 != s {
		panic(fmt.Sprintf("array: location %v not in stripe %d", loc, s))
	}
	return j
}

// WriteRange writes count consecutive logical data units starting at unit.
// Per stripe touched, the driver picks the cheapest correct path:
//
//   - large write: the group covers all G−1 data units and every unit
//     (including parity) is writable — write all G units, no pre-reads;
//   - read-modify-write: pre-read the k old data units and parity, write
//     k+1 (2k+2 accesses);
//   - reconstruct-write: read the G−1−k untouched data units, write k+1
//     (G accesses) — cheaper than RMW when k+2 > G−k;
//   - degraded stripes (a lost, unreconstructed unit among data or
//     parity) fall back to the single-unit degraded paths per unit.
func (a *Array) WriteRange(unit int64, count int, done func()) {
	a.checkRange(unit, count)
	sp := a.takeOpSpan()
	groups := a.groupByStripe(unit, count)
	part := join(len(groups), done)
	for _, grp := range groups {
		a.writeGroup(grp, sp, part)
	}
}

func (a *Array) writeGroup(grp stripeGroup, sp *telemetry.Span, done func()) {
	g := a.lay.G()
	var plocs [maxParities]layout.Loc
	for k := 0; k < a.parities; k++ {
		plocs[k] = layout.ParityLocOf(a.lay, grp.stripe, k)
	}
	// writable reports whether every unit the group writes, parities
	// included, is available.
	writable := func() bool {
		for _, u := range plocs[:a.parities] {
			if !a.available(u) {
				return false
			}
		}
		for _, loc := range grp.locs {
			if !a.available(loc) {
				return false
			}
		}
		return true
	}

	// Degraded stripes use the single-unit paths, which handle folding,
	// redirection and reconstruction marking; the group degenerates to
	// per-unit writes.
	if !writable() {
		part := join(len(grp.units), done)
		for _, n := range grp.units {
			a.SetOpSpan(sp)
			a.Write(n, part)
		}
		return
	}

	values := make([]uint64, len(grp.units))
	for i := range values {
		values[i] = a.newValue()
	}
	k := len(grp.units)
	lockSp := sp.Child(telemetry.PhaseLockWait, a.eng.Now())
	a.locks.acquire(grp.stripe, func() {
		lockSp.End(a.eng.Now())
		var phase *telemetry.Span
		finish := func() {
			phase.End(a.eng.Now())
			a.locks.release(grp.stripe)
			done()
		}
		// State may have changed while waiting; bail to per-unit writes
		// if the stripe degraded (writeLocked handles every case, but
		// we must not hold the lock across its own acquire).
		if !writable() {
			a.locks.release(grp.stripe)
			part := join(len(grp.units), done)
			for _, n := range grp.units {
				a.SetOpSpan(sp)
				a.Write(n, part)
			}
			return
		}

		commit := func() []xfer {
			xs := make([]xfer, 0, k+a.parities)
			for _, loc := range grp.locs {
				xs = append(xs, xfer{loc: loc, write: true})
			}
			for _, u := range plocs[:a.parities] {
				xs = append(xs, xfer{loc: u, write: true})
			}
			return xs
		}
		apply := func(par [maxParities]uint64) {
			for i, loc := range grp.locs {
				a.setUnitVal(loc, values[i])
				a.expected[grp.units[i]] = values[i]
			}
			for p, u := range plocs[:a.parities] {
				a.setUnitVal(u, par[p])
			}
		}

		// The reconstruct-write path pre-reads the stripe's untouched
		// data units, so it is only eligible when they are all readable
		// (they may include a lost, unreconstructed unit even though
		// everything the group writes is available).
		touched := make(map[layout.Loc]bool, k)
		for _, loc := range grp.locs {
			touched[loc] = true
		}
		var others []layout.Loc
		othersReadable := true
		for j := 0; j < g; j++ {
			if layout.IsParityPos(a.lay, grp.stripe, j) {
				continue
			}
			u := a.lay.Unit(grp.stripe, j)
			if !touched[u] {
				others = append(others, u)
				if !a.available(u) {
					othersReadable = false
				}
			}
		}

		var par [maxParities]uint64
		switch {
		case k == layout.DataPerStripe(a.lay):
			// Large write: parity from the new data alone.
			for i, loc := range grp.locs {
				a.foldTerms(&par, grp.stripe, loc, values[i])
			}
			phase = sp.Child(telemetry.PhaseCommit, a.eng.Now())
			a.phaseSpan = phase
			a.io(commit(), userPriority, func(_ []xfer) {
				apply(par)
				finish()
			})
		case 2*(k+a.parities) <= g || !othersReadable:
			// Read-modify-write: pre-read old data and parity. Old
			// contents are sampled at submit time (see writeNormal).
			pre := reads(grp.locs)
			for p, u := range plocs[:a.parities] {
				par[p] = a.unitVal(u)
				pre = append(pre, xfer{loc: u})
			}
			for i, loc := range grp.locs {
				a.foldTerms(&par, grp.stripe, loc, a.unitVal(loc)^values[i])
			}
			phase = sp.Child(telemetry.PhasePreread, a.eng.Now())
			a.phaseSpan = phase
			a.io(pre, userPriority, func(fails []xfer) {
				a.repairThen(grp.stripe, fails, userPriority, func() {
					phase.End(a.eng.Now())
					phase = sp.Child(telemetry.PhaseCommit, a.eng.Now())
					a.phaseSpan = phase
					a.io(commit(), userPriority, func(_ []xfer) {
						apply(par)
						finish()
					})
				})
			})
		default:
			// Reconstruct-write: read the untouched data units.
			for _, u := range others {
				a.foldTerms(&par, grp.stripe, u, a.unitVal(u))
			}
			for i, loc := range grp.locs {
				a.foldTerms(&par, grp.stripe, loc, values[i])
			}
			phase = sp.Child(telemetry.PhasePreread, a.eng.Now())
			a.phaseSpan = phase
			a.io(reads(others), userPriority, func(fails []xfer) {
				a.repairThen(grp.stripe, fails, userPriority, func() {
					phase.End(a.eng.Now())
					phase = sp.Child(telemetry.PhaseCommit, a.eng.Now())
					a.phaseSpan = phase
					a.io(commit(), userPriority, func(_ []xfer) {
						apply(par)
						finish()
					})
				})
			})
		}
	})
}

func (a *Array) checkRange(unit int64, count int) {
	if count <= 0 {
		panic(fmt.Sprintf("array: range of %d units", count))
	}
	if unit < 0 || unit+int64(count) > a.dataUnits {
		panic(fmt.Sprintf("array: range [%d,%d) outside data space [0,%d)",
			unit, unit+int64(count), a.dataUnits))
	}
}
