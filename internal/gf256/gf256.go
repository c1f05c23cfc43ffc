// Package gf256 implements arithmetic over GF(2^8), the Galois field the
// RAID-6 Q parity is computed in. The field is built on the polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d) with generator 2 — the conventional
// RAID-6 field (Anvin, "The mathematics of RAID-6") — so every nonzero
// element is a power of 2 and the scalar ops (Mul, Div, Inv) reduce to
// exp/log table lookups. The word and slice kernels (MulWord, MulSlice,
// MulAddSlice) use no tables: they multiply 8 bytes per uint64 at once by
// Anvin's int64 method, doubling every byte of a word in a few shifts and
// masks and XORing the doublings selected by the coefficient's bits.
//
// For a stripe with data units d_0..d_{k-1}, the two parity units are
//
//	P = d_0 ⊕ d_1 ⊕ ... ⊕ d_{k-1}            (plain XOR)
//	Q = g^0·d_0 ⊕ g^1·d_1 ⊕ ... ⊕ g^{k-1}·d_{k-1}
//
// applied byte-wise. P and Q together correct any two erasures; the
// package provides the scalar field ops, the byte-slice kernels the
// storage engine's Q path is built from, and the coefficient solver for
// the two-data-erasure case.
package gf256

import (
	"crypto/subtle"
	"encoding/binary"
)

// Poly is the field's reduction polynomial (x^8+x^4+x^3+x^2+1) and
// Generator its primitive element.
const (
	Poly      = 0x11d
	Generator = 2
)

// exp holds g^i for i in [0, 510): doubling the table length lets Mul skip
// the mod-255 reduction of the summed logs. log is its inverse (log[0] is
// unused — zero has no logarithm).
var (
	exp [510]byte
	log [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		exp[i] = byte(x)
		exp[i+255] = byte(x)
		log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
}

// Exp returns Generator^n for any n (negative exponents invert).
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return exp[n]
}

// Log returns the discrete log of x (base Generator). It panics on 0,
// which has no logarithm.
func Log(x byte) int {
	if x == 0 {
		panic("gf256: log of zero")
	}
	return int(log[x])
}

// Mul returns a·b in the field.
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return exp[int(log[a])+int(log[b])]
}

// Div returns a/b in the field. It panics on division by zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(log[a]) - int(log[b])
	if d < 0 {
		d += 255
	}
	return exp[d]
}

// Inv returns the multiplicative inverse of x. It panics on 0.
func Inv(x byte) byte {
	if x == 0 {
		panic("gf256: inverse of zero")
	}
	return exp[255-int(log[x])]
}

// dbl multiplies each of the 8 bytes of x by the generator 2: every byte
// shifts left one bit, and a byte whose top bit carried out is reduced by
// the low byte of Poly (0x1d).
func dbl(x uint64) uint64 {
	const low7, low1 = 0x7f7f7f7f7f7f7f7f, 0x0101010101010101
	return (x&low7)<<1 ^ ((x>>7)&low1)*(Poly&0xff)
}

// MulWord multiplies each of the 8 bytes of a 64-bit word by c — the
// word-sized kernel for simulators that model one uint64 per unit. c·w is
// the XOR of 2^j·w over the set bits j of c, so the cost grows with the
// bit length of c.
func MulWord(c byte, w uint64) uint64 {
	var out uint64
	for {
		if c&1 != 0 {
			out ^= w
		}
		if c >>= 1; c == 0 {
			return out
		}
		w = dbl(w)
	}
}

// MulSlice multiplies every byte of src by c and stores the products in
// dst (dst and src may alias exactly). Lengths must match.
func MulSlice(dst, src []byte, c byte) {
	mulSlice(dst, src, c, false)
}

// MulAddSlice XORs c·src into dst byte-wise — the fused kernel the Q
// computation Q = Σ g^i·d_i is folded with. Lengths must match; c == 1 is
// a plain XOR.
func MulAddSlice(dst, src []byte, c byte) {
	if c == 1 {
		subtle.XORBytes(dst, dst, src)
		return
	}
	mulSlice(dst, src, c, true)
}

// mulSlice sets dst to c·src, or XORs c·src into dst when add is set. It
// runs MulWord's bit loop on 4 words (32 bytes) per step, so the loop's
// branches amortize over four independent doubling chains; the tail past
// the last whole step goes byte by byte through Mul.
func mulSlice(dst, src []byte, c byte, add bool) {
	_ = dst[len(src)-1]
	n := len(src) &^ 31
	for i := 0; i < n; i += 32 {
		s, d := src[i:i+32:i+32], dst[i:i+32:i+32]
		x0 := binary.LittleEndian.Uint64(s[0:])
		x1 := binary.LittleEndian.Uint64(s[8:])
		x2 := binary.LittleEndian.Uint64(s[16:])
		x3 := binary.LittleEndian.Uint64(s[24:])
		var y0, y1, y2, y3 uint64
		if add {
			y0 = binary.LittleEndian.Uint64(d[0:])
			y1 = binary.LittleEndian.Uint64(d[8:])
			y2 = binary.LittleEndian.Uint64(d[16:])
			y3 = binary.LittleEndian.Uint64(d[24:])
		}
		for b := c; ; {
			if b&1 != 0 {
				y0 ^= x0
				y1 ^= x1
				y2 ^= x2
				y3 ^= x3
			}
			if b >>= 1; b == 0 {
				break
			}
			x0, x1, x2, x3 = dbl(x0), dbl(x1), dbl(x2), dbl(x3)
		}
		binary.LittleEndian.PutUint64(d[0:], y0)
		binary.LittleEndian.PutUint64(d[8:], y1)
		binary.LittleEndian.PutUint64(d[16:], y2)
		binary.LittleEndian.PutUint64(d[24:], y3)
	}
	for i := n; i < len(src); i++ {
		p := Mul(c, src[i])
		if add {
			p ^= dst[i]
		}
		dst[i] = p
	}
}

// TwoErasureCoeffs returns the decode coefficients for two erased data
// units at stripe-data ordinals x < y, solving
//
//	Pxy = d_x ⊕ d_y
//	Qxy = g^x·d_x ⊕ g^y·d_y
//
// (Pxy and Qxy are P and Q with every surviving data unit's contribution
// removed). The solution is
//
//	d_y = a·Pxy ⊕ b·Qxy,  d_x = d_y ⊕ Pxy
//
// with a = g^x/(g^x ⊕ g^y) and b = 1/(g^x ⊕ g^y). It panics unless
// 0 <= x < y (g^x ⊕ g^y is then nonzero, so the system is solvable).
func TwoErasureCoeffs(x, y int) (a, b byte) {
	if x < 0 || x >= y {
		panic("gf256: need 0 <= x < y")
	}
	gx, gy := Exp(x), Exp(y)
	den := gx ^ gy
	return Div(gx, den), Inv(den)
}
