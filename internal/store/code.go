package store

import (
	"fmt"

	"declust/internal/gf256"
	"declust/internal/layout"
)

// maxParities bounds a stripe's parity units: New accepts layouts with 1
// (P) or 2 (P+Q).
const maxParities = 2

// code is a stripe's erasure code: m parity units over the stripe's data
// units. Parity i of data ordinal d (layout.DataOrdinal) carries the
// coefficient g^(i·d) in GF(2^8), so parity 0 — P, the paper's parity — is
// the plain XOR of the data, and parity 1 — Q — the Reed–Solomon sum
// Σ g^d·data_d. m parities correct any m erasures per stripe: m = 1 is the
// paper's single-failure code, m = 2 the P+Q double-failure code.
//
// Every engine path that computes parity or decodes goes through a code
// value and a set of per-parity accumulators (acc[i] for parity i, nil
// when the path does not maintain that parity).
type code struct{ m int }

// fold XORs parity i's term for data ordinal d, g^(i·d)·src, into dst. A
// unit coefficient — every P term, and Q's term for ordinal 0 — is a plain
// XOR inside gf256.MulAddSlice.
func (code) fold(i, d int, dst, src []byte) {
	gf256.MulAddSlice(dst, src, gf256.Exp(i*d))
}

// add folds one unit's contents into the active accumulators: a data unit
// (ord ≥ 0) contributes its term to every one, parity unit i (ord = −1−i)
// XORs into its own.
func (c code) add(acc *[maxParities][]byte, ord int, data []byte) {
	if ord < 0 {
		xorInto(acc[-1-ord], data)
		return
	}
	for i, a := range acc {
		if a != nil {
			c.fold(i, ord, a, data)
		}
	}
}

// plan assigns each erased unit (ords[e], as in add) the accumulator that
// solve leaves its contents in: an erased parity keeps its own, and the
// erased data units, by ascending ordinal, take the readable parities in
// index order — so one lost data unit decodes through P, the plain XOR,
// whenever P survives.
func (code) plan(ords []int) (at [maxParities]int) {
	var taken [maxParities]bool
	for e, o := range ords {
		if o < 0 {
			at[e] = -1 - o
			taken[-1-o] = true
		}
	}
	xs := dataErasures(ords)
	next := 0
	for _, e := range xs {
		if e < 0 {
			break
		}
		for taken[next] {
			next++
		}
		at[e] = next
		taken[next] = true
	}
	return at
}

// dataErasures returns the indexes into ords of its data ordinals, by
// ascending ordinal, padded with −1.
func dataErasures(ords []int) [maxParities]int {
	xs := [maxParities]int{-1, -1}
	n := 0
	for e, o := range ords {
		if o >= 0 {
			xs[n] = e
			n++
		}
	}
	if n == 2 && ords[xs[0]] > ords[xs[1]] {
		xs[0], xs[1] = xs[1], xs[0]
	}
	return xs
}

// solve finishes a decode in place. On entry, for the assignment at =
// plan(ords), each accumulator acc[at[e]] holds its parity's syndrome over
// the stripe's readable units: the stored parity, if it was read, XOR the
// parity's terms for every readable data unit. Any other non-nil
// accumulator holds the same sum for a parity the erasures leave unused.
// On return acc[at[e]] holds erased unit e's contents, and an unused
// parity's accumulator its syndrome over the whole repaired stripe. solve
// returns the first unused parity whose syndrome is not zero although a
// data unit was solved — one more error than the code can locate, so the
// solved data cannot be trusted — or −1.
func (c code) solve(acc *[maxParities][]byte, ords []int, at [maxParities]int) int {
	xs := dataErasures(ords)
	switch {
	case xs[1] >= 0:
		// Two erased data units x < y, solved through P and Q: with every
		// readable data unit's terms removed, Pxy = d_x ⊕ d_y and
		// Qxy = g^x·d_x ⊕ g^y·d_y, and gf256.TwoErasureCoeffs gives
		// d_y = a·Pxy ⊕ b·Qxy, d_x = d_y ⊕ Pxy.
		dx, dy := acc[at[xs[0]]], acc[at[xs[1]]]
		a, b := gf256.TwoErasureCoeffs(ords[xs[0]], ords[xs[1]])
		gf256.MulSlice(dy, dy, b)
		gf256.MulAddSlice(dy, dx, a)
		xorInto(dx, dy)
	case xs[0] >= 0:
		// One erased data unit x through parity i: d_x = g^(−i·x)·syndrome.
		e := xs[0]
		if inv := gf256.Exp(-at[e] * ords[e]); inv != 1 {
			gf256.MulSlice(acc[at[e]], acc[at[e]], inv)
		}
	default:
		return -1 // only parities erased: every data unit was read whole
	}
	// Every accumulator no data unit solved into — an erased parity's and
	// an unused parity's — summed only the readable data; add the solved
	// data units' terms.
	var used, solved [maxParities]bool
	for e, o := range ords {
		used[at[e]], solved[at[e]] = true, o >= 0
	}
	bad := -1
	for i, a := range acc {
		if a == nil || solved[i] {
			continue
		}
		for _, x := range xs {
			if x >= 0 {
				c.fold(i, ords[x], a, acc[at[x]])
			}
		}
		if bad < 0 && !used[i] && !isZero(a) {
			bad = i
		}
	}
	return bad
}

// erasure is one stripe unit a decode computes.
type erasure struct {
	gatherItem
	out  []byte  // receives the solved contents (unitSize)
	buf  *[]byte // pooled backing for out when the caller supplied none
	heal bool    // damaged in place (not lost): rewrite once solved
}

// freeErasures returns the pooled buffers of an erasure list.
func (s *Store) freeErasures(list []erasure) {
	for i := range list {
		if list[i].buf != nil {
			s.putBuf(list[i].buf)
		}
	}
}

// unitItem returns position j of stripe as a gather item.
func (s *Store) unitItem(stripe int64, j int) gatherItem {
	u := s.lay.Unit(stripe, j)
	for i := 0; i < s.code.m; i++ {
		if j == layout.ParityPosOf(s.lay, stripe, i) {
			return gatherItem{loc: u, ord: -1 - i}
		}
	}
	return gatherItem{loc: u, ord: layout.DataOrdinal(s.lay, stripe, j)}
}

// lostErasures lists the stripe's lost units as erasures (list[:n]). The
// unit at want (if lost) solves into wantOut; other lost units solve into
// pooled scratch. More lost units than the code corrects is
// ErrUnrecoverable.
func (s *Store) lostErasures(st *diskState, stripe int64, want layout.Loc, wantOut []byte) (list [maxParities]erasure, n int, err error) {
	g := s.lay.G()
	for j := 0; j < g; j++ {
		u := s.lay.Unit(stripe, j)
		if !st.lost(u) {
			continue
		}
		if n == s.code.m {
			s.freeErasures(list[:n])
			return list, 0, fmt.Errorf("%w: %d lost units in stripe %d, the code corrects %d",
				ErrUnrecoverable, n+1, stripe, s.code.m)
		}
		e := erasure{gatherItem: s.unitItem(stripe, j)}
		if u == want {
			e.out = wantOut
		} else {
			e.buf = s.getBuf()
			e.out = (*e.buf)[:s.unitSize]
		}
		list[n] = e
		n++
	}
	return list, n, nil
}

// decode computes every listed erasure's contents into its out buffer,
// reading only the units the erasure pattern needs: the stripe's other
// data units and the parities plan assigns. A decode that heals a data
// unit (an erasure flagged heal) also reads each parity the solve leaves
// unused, into an accumulator of its own, and requires it to balance
// over the repair — the check resyncStripe makes — because the healed
// contents are about to be written back: a parity that does not balance
// is ErrUnrecoverable. The reads go through gather, so damaged units are
// returned (in item order) for the caller to absorb or escalate; the
// outputs are then meaningless. Caller holds at least the stripe's read
// lock, and every lost unit of the stripe is in list.
func (s *Store) decode(st *diskState, stripe int64, list []erasure) ([]damagedUnit, error) {
	var ords [maxParities]int
	healed := -1 // a damaged data unit the decode heals
	for e := range list {
		ords[e] = list[e].ord
		if list[e].heal && list[e].ord >= 0 {
			healed = e
		}
	}
	at := s.code.plan(ords[:len(list)])
	var acc [maxParities][]byte
	for e := range list {
		zeroBytes(list[e].out)
		acc[at[e]] = list[e].out
	}
	var spare [maxParities]*[]byte
	if healed >= 0 {
		for i := 0; i < s.code.m; i++ {
			if acc[i] == nil {
				spare[i] = s.getBuf()
				acc[i] = (*spare[i])[:s.unitSize]
				zeroBytes(acc[i])
			}
		}
		defer s.putBufs(spare)
	}
	g := s.lay.G()
	items := make([]gatherItem, 0, g-len(list))
	for j := 0; j < g; j++ {
		it := s.unitItem(stripe, j)
		erased := false
		for e := range list {
			erased = erased || list[e].loc == it.loc
		}
		if erased || (it.ord < 0 && acc[-1-it.ord] == nil) {
			continue
		}
		items = append(items, it)
	}
	damaged, err := s.gather(st, items, acc)
	if err != nil || len(damaged) > 0 {
		return damaged, err
	}
	if i := s.code.solve(&acc, ords[:len(list)], at); i >= 0 {
		return nil, fmt.Errorf("%w: stripe %d: parity %c does not balance over the repair of %v",
			ErrUnrecoverable, stripe, "PQ"[i], list[healed].loc)
	}
	return nil, nil
}
