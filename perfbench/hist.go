package main

import "math/bits"

// hist is a log-linear latency histogram over nanoseconds: values below
// 2^histBits are exact, larger ones keep their top histBits significant
// bits (a relative bucket width of 1/2^(histBits-1), under 1%). Its size
// is fixed, so memory use does not grow with the number of samples and
// peak RSS does not depend on how fast the program runs.
type hist struct {
	counts [(64 - histBits + 2) << (histBits - 1)]uint64
	n      uint64
}

const histBits = 8

func histIndex(v uint64) int {
	if v < 1<<histBits {
		return int(v)
	}
	shift := bits.Len64(v) - histBits
	return (shift+1)<<(histBits-1) + int(v>>shift) - 1<<(histBits-1)
}

// histBounds returns bucket i's value range [lo, hi).
func histBounds(i int) (lo, hi uint64) {
	if i < 1<<histBits {
		return uint64(i), uint64(i) + 1
	}
	shift := i>>(histBits-1) - 1
	m := uint64(i&(1<<(histBits-1)-1)) + 1<<(histBits-1)
	return m << shift, (m + 1) << shift
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			lo, hi := histBounds(i)
			frac := (rank - float64(seen) + 0.5) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		seen += c
	}
	return 0
}
