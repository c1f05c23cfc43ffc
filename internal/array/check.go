package array

import (
	"fmt"

	"declust/internal/layout"
)

// CheckConsistency verifies the array's data-layer invariants. It is meant
// to be called at quiesce (no user operations or reconstruction in flight):
//
//   - every readable data unit holds the last value written to it;
//   - every readable parity unit holds its sum over those last values (the
//     XOR for P, the Reed–Solomon sum for Q), so every parity equation
//     balances and the stripe's lost units — no more than the code
//     corrects — remain decodable to the last values written.
//
// Together these prove the driver's degraded paths (parity folding,
// redirection, piggybacking) never corrupt or strand data; losses beyond
// the code are restored out of band (recordLoss), so they hold then too.
func (a *Array) CheckConsistency() error {
	if a.locks.heldCount() != 0 {
		return fmt.Errorf("array: %d stripe locks held; not quiesced", a.locks.heldCount())
	}
	g := a.lay.G()
	for s := int64(0); s < a.numStripes; s++ {
		var ppos [maxParities]int
		for k := 0; k < a.parities; k++ {
			ppos[k] = layout.ParityPosOf(a.lay, s, k)
		}
		// par sums each parity over the last values written; got holds
		// the parity units' contents where read.
		var par, got [maxParities]uint64
		var read [maxParities]bool
		lost, d := 0, 0
		for j := 0; j < g; j++ {
			u := a.lay.Unit(s, j)
			k := -1
			for p := 0; p < a.parities; p++ {
				if j == ppos[p] {
					k = p
				}
			}
			if k >= 0 {
				if read[k] = a.available(u); read[k] {
					got[k] = a.unitVal(u)
				} else {
					lost++
				}
				continue
			}
			idx := a.mapper.Index(s, j)
			want := a.expected[idx]
			par[0] ^= want
			for k := 1; k < a.parities; k++ {
				par[k] ^= termOf(k, d, want)
			}
			d++
			if !a.available(u) {
				lost++
				continue
			}
			if got := a.unitVal(u); got != want {
				return fmt.Errorf("stripe %d: data unit %d at %v holds %#x, want %#x",
					s, idx, u, got, want)
			}
		}
		if lost > a.parities {
			return fmt.Errorf("stripe %d: %d lost units; layout broken", s, lost)
		}
		for k := 0; k < a.parities; k++ {
			if read[k] && got[k] != par[k] {
				return fmt.Errorf("stripe %d: %c parity at %v holds %#x, want %#x",
					s, "PQ"[k], layout.ParityLocOf(a.lay, s, k), got[k], par[k])
			}
		}
	}
	return nil
}

// ExpectedValue returns the last value logically written to a data unit
// (for tests).
func (a *Array) ExpectedValue(unit int64) uint64 { return a.expected[unit] }

// UnitContent returns the physical content of a unit (for tests). It does
// not check readability.
func (a *Array) UnitContent(loc layout.Loc) uint64 {
	return a.unitVal(loc)
}

// Reconstructed reports whether the failed slot's unit at off has been
// reconstructed; it is only meaningful in degraded mode.
func (a *Array) Reconstructed(off int64) bool {
	return a.reconDone != nil && a.reconDone[off]
}
