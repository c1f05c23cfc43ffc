package gf256

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestGeneratorSanity: the generator's powers must enumerate every nonzero
// field element exactly once per 255-cycle (2 is primitive mod 0x11d).
func TestGeneratorSanity(t *testing.T) {
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		e := Exp(i)
		if e == 0 {
			t.Fatalf("Exp(%d) = 0", i)
		}
		if seen[e] {
			t.Fatalf("Exp(%d) = %#x repeats before the cycle closes", i, e)
		}
		seen[e] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator visits %d elements, want 255", len(seen))
	}
	if Exp(255) != Exp(0) || Exp(0) != 1 {
		t.Fatalf("Exp cycle broken: Exp(0)=%#x Exp(255)=%#x", Exp(0), Exp(255))
	}
	if Exp(-1) != Inv(Generator) {
		t.Fatalf("Exp(-1)=%#x, want Inv(g)=%#x", Exp(-1), Inv(Generator))
	}
}

// TestLogExpRoundTrip: log and exp invert each other on every nonzero
// element.
func TestLogExpRoundTrip(t *testing.T) {
	for x := 1; x < 256; x++ {
		if got := Exp(Log(byte(x))); got != byte(x) {
			t.Fatalf("Exp(Log(%#x)) = %#x", x, got)
		}
	}
}

// mulSlow is the bitwise reference multiplication (Russian peasant).
func mulSlow(a, b byte) byte {
	var p byte
	aa, bb := int(a), int(b)
	for bb != 0 {
		if bb&1 != 0 {
			p ^= byte(aa)
		}
		aa <<= 1
		if aa&0x100 != 0 {
			aa ^= Poly
		}
		bb >>= 1
	}
	return p
}

// TestMulMatchesReference: table multiplication agrees with the bitwise
// definition on all 65536 pairs.
func TestMulMatchesReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), mulSlow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x,%#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

// TestMulDivRoundTrip: (a·b)/b == a for every nonzero b.
func TestMulDivRoundTrip(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if got := Div(Mul(byte(a), byte(b)), byte(b)); got != byte(a) {
				t.Fatalf("(%#x * %#x) / %#x = %#x", a, b, b, got)
			}
		}
	}
}

// TestInv: x · Inv(x) == 1 for every nonzero x.
func TestInv(t *testing.T) {
	for x := 1; x < 256; x++ {
		if got := Mul(byte(x), Inv(byte(x))); got != 1 {
			t.Fatalf("%#x * Inv(%#x) = %#x, want 1", x, x, got)
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if Mul(a, b) != Mul(b, a) {
			t.Fatalf("commutativity fails at %#x,%#x", a, b)
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			t.Fatalf("associativity fails at %#x,%#x,%#x", a, b, c)
		}
		if Mul(a, b^c) != Mul(a, b)^Mul(a, c) {
			t.Fatalf("distributivity fails at %#x,%#x,%#x", a, b, c)
		}
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"log-zero":      func() { Log(0) },
		"div-zero":      func() { Div(3, 0) },
		"inv-zero":      func() { Inv(0) },
		"coeffs-order":  func() { TwoErasureCoeffs(2, 2) },
		"coeffs-bounds": func() { TwoErasureCoeffs(-1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// kernelLens are the slice lengths the kernels are pinned at: below one
// 32-byte step (8, 24), exactly one step (32), one step plus a tail (40),
// a unit (4096), and a unit plus a tail (4104).
var kernelLens = []int{8, 24, 32, 40, 4096, 4104}

// TestMulSlice: for every coefficient and every kernel length,
// MulSlice agrees with byte-wise Mul, into a separate dst and in place
// (dst == src, as the store's decode calls it).
func TestMulSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range kernelLens {
		src := make([]byte, n)
		rng.Read(src)
		dst, inPlace := make([]byte, n), make([]byte, n)
		for c := 0; c < 256; c++ {
			rng.Read(dst)
			MulSlice(dst, src, byte(c))
			copy(inPlace, src)
			MulSlice(inPlace, inPlace, byte(c))
			for i, b := range src {
				want := Mul(byte(c), b)
				if dst[i] != want || inPlace[i] != want {
					t.Fatalf("MulSlice n=%d c=%#x at %d: got %#x (in place %#x) want %#x",
						n, c, i, dst[i], inPlace[i], want)
				}
			}
		}
	}
}

// TestMulAddSlice: for every coefficient and every kernel
// length, MulAddSlice XORs exactly byte-wise Mul's products into dst.
func TestMulAddSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range kernelLens {
		src, dst, old := make([]byte, n), make([]byte, n), make([]byte, n)
		rng.Read(src)
		for c := 0; c < 256; c++ {
			rng.Read(old)
			copy(dst, old)
			MulAddSlice(dst, src, byte(c))
			for i, b := range src {
				if want := old[i] ^ Mul(byte(c), b); dst[i] != want {
					t.Fatalf("MulAddSlice n=%d c=%#x at %d: got %#x want %#x", n, c, i, dst[i], want)
				}
			}
		}
	}
}

// TestMulWord: for every coefficient, MulWord agrees with
// byte-wise Mul on random words and on the words holding every byte value.
func TestMulWord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := make([]uint64, 0, 64+32)
	for i := 0; i < 64; i++ {
		words = append(words, rng.Uint64())
	}
	for b := 0; b < 256; b += 8 {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(b+j) << (8 * j)
		}
		words = append(words, w)
	}
	for c := 0; c < 256; c++ {
		for _, w := range words {
			got := MulWord(byte(c), w)
			for shift := 0; shift < 64; shift += 8 {
				if want := Mul(byte(c), byte(w>>shift)); byte(got>>shift) != want {
					t.Fatalf("MulWord(%#x, %#x) byte %d: got %#x want %#x",
						c, w, shift/8, byte(got>>shift), want)
				}
			}
		}
	}
}

// TestTwoErasureDecode: for random data, erasing any two ordinals and
// decoding from Pxy/Qxy recovers them.
func TestTwoErasureDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const k = 8
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, k)
		rng.Read(data)
		var p, q byte
		for i, d := range data {
			p ^= d
			q ^= Mul(Exp(i), d)
		}
		for x := 0; x < k; x++ {
			for y := x + 1; y < k; y++ {
				pxy, qxy := p, q
				for i, d := range data {
					if i != x && i != y {
						pxy ^= d
						qxy ^= Mul(Exp(i), d)
					}
				}
				a, b := TwoErasureCoeffs(x, y)
				dy := Mul(a, pxy) ^ Mul(b, qxy)
				dx := dy ^ pxy
				if dx != data[x] || dy != data[y] {
					t.Fatalf("decode(%d,%d): got %#x,%#x want %#x,%#x",
						x, y, dx, dy, data[x], data[y])
				}
			}
		}
	}
}

// BenchmarkMulAddSlice folds a 4 KiB unit by one coefficient of each
// class the store uses: 1 (every P term), 2 and 4 (the Q coefficients of
// data ordinals 1 and 2), and 0x8e (a decode coefficient with the full
// bit length, the kernel's slowest case).
func BenchmarkMulAddSlice(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(src)
	for _, c := range []byte{1, 2, 4, 0x8e} {
		b.Run(fmt.Sprintf("c=%#x", c), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				MulAddSlice(dst, src, c)
			}
		})
	}
}
