package group

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// fe is a field element in Montgomery form: the value a·R mod p with
// R = 2²⁵⁶, stored as four little-endian 64-bit limbs and always fully
// reduced (< p), so limb equality is field equality.
type fe [4]uint64

// field is the arithmetic of one 256-bit prime field. Both supported
// primes share the same generic CIOS Montgomery reduction; the per-prime
// constants are derived once from the modulus.
type field struct {
	p    fe     // the modulus (plain, not Montgomery)
	n0   uint64 // −p⁻¹ mod 2⁶⁴
	r2   fe     // R² mod p, for entering Montgomery form
	one  fe     // R mod p, the Montgomery form of 1
	pm2  fe     // p − 2, the Fermat inversion exponent (plain)
	sqr4 fe     // (p + 1)/4, the square-root exponent for p ≡ 3 (mod 4)
}

// newField derives the Montgomery constants for an odd prime p < 2²⁵⁶.
func newField(p *big.Int) *field {
	f := &field{p: limbsOf(p)}
	// Newton iteration for p⁻¹ mod 2⁶⁴: each step doubles the correct
	// low bits, and p₀ itself is correct to 3 bits for odd p.
	inv := f.p[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - f.p[0]*inv
	}
	f.n0 = -inv
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	f.one = limbsOf(new(big.Int).Mod(r, p))
	f.r2 = limbsOf(new(big.Int).Mod(new(big.Int).Mul(r, r), p))
	f.pm2 = limbsOf(new(big.Int).Sub(p, big.NewInt(2)))
	f.sqr4 = limbsOf(new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 2))
	return f
}

// limbsOf converts a non-negative integer below 2²⁵⁶ to limbs (no
// Montgomery conversion).
func limbsOf(v *big.Int) fe {
	var buf [32]byte
	v.FillBytes(buf[:])
	return fe{
		binary.BigEndian.Uint64(buf[24:32]),
		binary.BigEndian.Uint64(buf[16:24]),
		binary.BigEndian.Uint64(buf[8:16]),
		binary.BigEndian.Uint64(buf[0:8]),
	}
}

func (a *fe) bytes() [32]byte {
	var buf [32]byte
	binary.BigEndian.PutUint64(buf[0:8], a[3])
	binary.BigEndian.PutUint64(buf[8:16], a[2])
	binary.BigEndian.PutUint64(buf[16:24], a[1])
	binary.BigEndian.PutUint64(buf[24:32], a[0])
	return buf
}

// fromBig enters Montgomery form from a value in [0, p).
func (f *field) fromBig(v *big.Int) fe {
	a := limbsOf(v)
	f.mul(&a, &a, &f.r2)
	return a
}

// toBig leaves Montgomery form.
func (f *field) toBig(a *fe) *big.Int {
	var r fe
	f.mul(&r, a, &fe{1})
	buf := r.bytes()
	return new(big.Int).SetBytes(buf[:])
}

func (a *fe) isZero() bool { return a[0]|a[1]|a[2]|a[3] == 0 }

// condSelect sets z to b when mask is all ones and leaves it when mask is
// zero, without branching.
func (z *fe) condSelect(mask uint64, b *fe) {
	z[0] ^= (z[0] ^ b[0]) & mask
	z[1] ^= (z[1] ^ b[1]) & mask
	z[2] ^= (z[2] ^ b[2]) & mask
	z[3] ^= (z[3] ^ b[3]) & mask
}

// reduceOnce returns t − p when the 257-bit value (hi, t) is ≥ p and t
// otherwise, choosing by mask rather than by branch.
func (f *field) reduceOnce(z *fe, t *fe, hi uint64) {
	var r fe
	var b uint64
	r[0], b = bits.Sub64(t[0], f.p[0], 0)
	r[1], b = bits.Sub64(t[1], f.p[1], b)
	r[2], b = bits.Sub64(t[2], f.p[2], b)
	r[3], b = bits.Sub64(t[3], f.p[3], b)
	_, b = bits.Sub64(hi, 0, b)
	// b = 1 exactly when (hi, t) < p: keep t.
	*z = r
	z.condSelect(-b, t)
}

// mul sets z = x·y·R⁻¹ mod p (coarsely integrated operand scanning).
// The running value stays below 2p, so one conditional subtraction
// finishes. z may alias x or y.
func (f *field) mul(z, x, y *fe) {
	p, n0 := &f.p, f.n0
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var t0, t1, t2, t3, t4 uint64
	for i := 0; i < 4; i++ {
		yi := y[i]
		var c, hi, lo, cc uint64

		// t += x·yᵢ
		hi, lo = bits.Mul64(x0, yi)
		t0, cc = bits.Add64(t0, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x1, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x2, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x3, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t3, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		t4, cc = bits.Add64(t4, c, 0)
		t5 := cc

		// t = (t + m·p) / 2⁶⁴ with m chosen so the low limb vanishes.
		m := t0 * n0
		hi, lo = bits.Mul64(m, p[0])
		_, cc = bits.Add64(t0, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(m, p[1])
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t0, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(m, p[2])
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(m, p[3])
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		t3, cc = bits.Add64(t4, c, 0)
		t4 = t5 + cc
	}
	f.reduceOnce(z, &fe{t0, t1, t2, t3}, t4)
}

// sqr sets z = x²·R⁻¹ mod p.
func (f *field) sqr(z, x *fe) { f.mul(z, x, x) }

// add sets z = x + y mod p.
func (f *field) add(z, x, y *fe) {
	var t fe
	var c uint64
	t[0], c = bits.Add64(x[0], y[0], 0)
	t[1], c = bits.Add64(x[1], y[1], c)
	t[2], c = bits.Add64(x[2], y[2], c)
	t[3], c = bits.Add64(x[3], y[3], c)
	f.reduceOnce(z, &t, c)
}

// sub sets z = x − y mod p.
func (f *field) sub(z, x, y *fe) {
	var t fe
	var b uint64
	t[0], b = bits.Sub64(x[0], y[0], 0)
	t[1], b = bits.Sub64(x[1], y[1], b)
	t[2], b = bits.Sub64(x[2], y[2], b)
	t[3], b = bits.Sub64(x[3], y[3], b)
	// On borrow add p back; the mask keeps it branch-free.
	mask := -b
	var c uint64
	z[0], c = bits.Add64(t[0], f.p[0]&mask, 0)
	z[1], c = bits.Add64(t[1], f.p[1]&mask, c)
	z[2], c = bits.Add64(t[2], f.p[2]&mask, c)
	z[3], _ = bits.Add64(t[3], f.p[3]&mask, c)
}

// neg sets z = −x mod p.
func (f *field) neg(z, x *fe) { f.sub(z, &fe{}, x) }

// dbl sets z = 2x mod p.
func (f *field) dbl(z, x *fe) { f.add(z, x, x) }

// inv sets z = x⁻¹ mod p by Fermat's little theorem, x^(p−2). The
// inverse of zero is zero.
func (f *field) inv(z, x *fe) { f.exp(z, x, &f.pm2) }

// exp sets z = x^e for a plain (non-Montgomery) exponent e, with a fixed
// 4-bit window. The exponents used are public constants of the prime.
func (f *field) exp(z, x, e *fe) {
	var table [16]fe
	table[0] = f.one
	table[1] = *x
	for i := 2; i < 16; i++ {
		f.mul(&table[i], &table[i-1], x)
	}
	acc := f.one
	for i := 63; i >= 0; i-- {
		f.sqr(&acc, &acc)
		f.sqr(&acc, &acc)
		f.sqr(&acc, &acc)
		f.sqr(&acc, &acc)
		f.mul(&acc, &acc, &table[(e[i/16]>>(4*(i%16)))&0xf])
	}
	*z = acc
}
