package group

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzDecode checks the uncompressed point decoder: no panics, and
// anything accepted is on the curve and re-encodes identically.
func FuzzDecode(f *testing.F) {
	c := Secp256k1()
	f.Add(c.Encode(c.Generator()))
	f.Add(c.Encode(Infinity()))
	f.Add(make([]byte, EncodedSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := c.Decode(data)
		if err != nil {
			return
		}
		if !c.IsOnCurve(p) {
			t.Fatal("decoder accepted an off-curve point")
		}
		if string(c.Encode(p)) != string(data) {
			t.Fatal("point encoding not canonical")
		}
	})
}

// FuzzMultiExpParallel cross-checks the parallel and sequential
// Pippenger paths against the math/big oracle, on both primes, on
// fuzzer-shaped scalar vectors. Base i is cᵢ·G with cᵢ = 7919i + 1, so the
// fuzzer explores the scalar space (where the recoding and bucket logic
// lives), not curve membership, and the oracle needs one scalar mult:
// ∑ kᵢ·(cᵢ·G) = (∑ kᵢcᵢ mod N)·G.
func FuzzMultiExpParallel(f *testing.F) {
	const maxScalars = 64
	curves := oracleCurves()
	bases := make([][]Point, len(curves))
	for ci, c := range curves {
		bases[ci] = make([]Point, maxScalars)
		for i := range bases[ci] {
			bases[ci][i] = c.ScalarBaseMult(big.NewInt(int64(i)*7919 + 1))
		}
	}
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Add(append(Secp256k1().N.Bytes(), 0, 1, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Each 8-byte chunk (last one may be short) becomes one scalar,
		// stretched over the full order via multiplication with a fixed
		// wide constant so high-bit and signed-recoding paths are hit.
		stretch := new(big.Int).Lsh(big.NewInt(0x9e3779b9), 160)
		var scalars []*big.Int
		for i := 0; i < len(data) && len(scalars) < maxScalars; i += 8 {
			end := i + 8
			if end > len(data) {
				end = len(data)
			}
			k := new(big.Int).SetBytes(data[i:end])
			if data[i]&1 == 1 {
				k.Mul(k, stretch)
			}
			scalars = append(scalars, k)
		}
		for ci, c := range curves {
			points := bases[ci][:len(scalars)]
			combined := new(big.Int)
			for i, k := range scalars {
				combined.Add(combined, new(big.Int).Mul(k, big.NewInt(int64(i)*7919+1)))
			}
			want := oracle{c}.pointMul(c.Generator(), combined)
			seq, err := c.MultiScalarMult(points, scalars, StrategyPippenger)
			if err != nil {
				t.Fatal(err)
			}
			par, err := c.MultiScalarMult(points, scalars, StrategyParallel)
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Equal(want) {
				t.Fatalf("%s: sequential disagrees with the oracle on %d scalars", c.Name, len(scalars))
			}
			if !par.Equal(want) {
				t.Fatalf("%s: parallel disagrees with the oracle on %d scalars", c.Name, len(scalars))
			}
		}
	})
}

// FuzzFieldOracle checks the limb field against math/big mod p on both
// primes: mul, square, add, sub, neg, inversion and the Montgomery round
// trip. Inputs are reduced mod p first; the seeds are the cross product of
// the edge values 0, 1, p−1 and 2²⁵⁶−1 (which reduces differently per
// prime).
func FuzzFieldOracle(f *testing.F) {
	all := bytes.Repeat([]byte{0xff}, 32)
	for _, c := range oracleCurves() {
		edges := [][]byte{{0}, {1}, new(big.Int).Sub(c.P, big.NewInt(1)).Bytes(), all}
		for _, a := range edges {
			for _, b := range edges {
				f.Add(a, b)
			}
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 32 || len(b) > 32 {
			return
		}
		for _, c := range oracleCurves() {
			fd, p := c.f, c.P
			x := new(big.Int).Mod(new(big.Int).SetBytes(a), p)
			y := new(big.Int).Mod(new(big.Int).SetBytes(b), p)
			xm, ym := fd.fromBig(x), fd.fromBig(y)
			if got := fd.toBig(&xm); got.Cmp(x) != 0 {
				t.Fatalf("%s: round trip of %x gave %x", c.Name, x, got)
			}
			check := func(op string, got fe, want *big.Int) {
				t.Helper()
				want.Mod(want, p)
				if g := fd.toBig(&got); g.Cmp(want) != 0 {
					t.Fatalf("%s: %s(%x, %x) = %x, want %x", c.Name, op, x, y, g, want)
				}
				for i := 3; i >= 0; i-- { // limbs must stay fully reduced
					if got[i] != fd.p[i] {
						if got[i] > fd.p[i] {
							t.Fatalf("%s: %s result not reduced", c.Name, op)
						}
						break
					}
				}
			}
			var z fe
			fd.mul(&z, &xm, &ym)
			check("mul", z, new(big.Int).Mul(x, y))
			fd.sqr(&z, &xm)
			check("sqr", z, new(big.Int).Mul(x, x))
			fd.add(&z, &xm, &ym)
			check("add", z, new(big.Int).Add(x, y))
			fd.sub(&z, &xm, &ym)
			check("sub", z, new(big.Int).Sub(x, y))
			fd.neg(&z, &xm)
			check("neg", z, new(big.Int).Neg(x))
			fd.inv(&z, &xm)
			if x.Sign() == 0 {
				check("inv", z, new(big.Int))
			} else {
				check("inv", z, new(big.Int).ModInverse(x, p))
			}
		}
	})
}
