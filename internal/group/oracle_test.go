package group

import "math/big"

// The math/big reference arithmetic: the Jacobian big.Int code the limb
// backend replaced, kept as an independent oracle for the differential
// tests and fuzzers. It shares nothing with the limb field but the curve
// constants.

// oracle evaluates curve arithmetic on one curve with math/big.
type oracle struct{ *Curve }

// pointAdd, pointMul and multiExp are the oracle's API-level operations.
func (o oracle) pointAdd(p, q Point) Point {
	return o.toPoint(o.add(toBigJacobian(p), toBigJacobian(q)))
}

func (o oracle) pointMul(p Point, k *big.Int) Point {
	kr := new(big.Int).Mod(k, o.N)
	if kr.Sign() == 0 || p.IsInfinity() {
		return Point{}
	}
	return o.toPoint(o.scalarMult(toBigJacobian(p), kr))
}

// multiExp is the naive ∑ kᵢ·pᵢ every strategy must reproduce.
func (o oracle) multiExp(points []Point, scalars []*big.Int) Point {
	acc := bigInfinity()
	for i := range points {
		kr := new(big.Int).Mod(scalars[i], o.N)
		if kr.Sign() == 0 || points[i].IsInfinity() {
			continue
		}
		acc = o.add(acc, o.scalarMult(toBigJacobian(points[i]), kr))
	}
	return o.toPoint(acc)
}

// bigJacobian is a point in Jacobian projective coordinates:
// (X, Y, Z) represents the affine point (X/Z², Y/Z³). Z = 0 is the identity.
type bigJacobian struct {
	x, y, z *big.Int
}

func bigInfinity() bigJacobian {
	return bigJacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
}

func (j bigJacobian) isInfinity() bool { return j.z.Sign() == 0 }

func toBigJacobian(p Point) bigJacobian {
	if p.IsInfinity() {
		return bigInfinity()
	}
	return bigJacobian{
		x: new(big.Int).Set(p.X),
		y: new(big.Int).Set(p.Y),
		z: big.NewInt(1),
	}
}

func (o oracle) toPoint(j bigJacobian) Point {
	if j.isInfinity() {
		return Point{}
	}
	zInv := new(big.Int).ModInverse(j.z, o.P)
	zInv2 := new(big.Int).Mul(zInv, zInv)
	zInv2.Mod(zInv2, o.P)
	x := new(big.Int).Mul(j.x, zInv2)
	x.Mod(x, o.P)
	zInv3 := zInv2.Mul(zInv2, zInv)
	zInv3.Mod(zInv3, o.P)
	y := new(big.Int).Mul(j.y, zInv3)
	y.Mod(y, o.P)
	return Point{X: x, Y: y}
}

// double computes 2p using the generic-a doubling formula:
// S = 4XY², M = 3X² + aZ⁴, X' = M² − 2S, Y' = M(S − X') − 8Y⁴, Z' = 2YZ.
func (o oracle) double(p bigJacobian) bigJacobian {
	if p.isInfinity() || p.y.Sign() == 0 {
		return bigInfinity()
	}
	mod := o.P

	y2 := new(big.Int).Mul(p.y, p.y)
	y2.Mod(y2, mod)

	s := new(big.Int).Mul(p.x, y2)
	s.Lsh(s, 2)
	s.Mod(s, mod)

	x2 := new(big.Int).Mul(p.x, p.x)
	x2.Mod(x2, mod)
	m := new(big.Int).Lsh(x2, 1)
	m.Add(m, x2) // 3X²
	if o.A.Sign() != 0 {
		z2 := new(big.Int).Mul(p.z, p.z)
		z2.Mod(z2, mod)
		z4 := z2.Mul(z2, z2)
		z4.Mod(z4, mod)
		az4 := z4.Mul(z4, o.A)
		m.Add(m, az4)
	}
	m.Mod(m, mod)

	x3 := new(big.Int).Mul(m, m)
	x3.Sub(x3, new(big.Int).Lsh(s, 1))
	x3.Mod(x3, mod)
	if x3.Sign() < 0 {
		x3.Add(x3, mod)
	}

	y4 := y2.Mul(y2, y2) // y2 now holds Y⁴
	y4.Mod(y4, mod)
	y3 := new(big.Int).Sub(s, x3)
	y3.Mul(y3, m)
	y3.Sub(y3, new(big.Int).Lsh(y4, 3))
	y3.Mod(y3, mod)
	if y3.Sign() < 0 {
		y3.Add(y3, mod)
	}

	z3 := new(big.Int).Mul(p.y, p.z)
	z3.Lsh(z3, 1)
	z3.Mod(z3, mod)

	return bigJacobian{x: x3, y: y3, z: z3}
}

// add computes p + q using the standard Jacobian addition formula.
func (o oracle) add(p, q bigJacobian) bigJacobian {
	if p.isInfinity() {
		return q
	}
	if q.isInfinity() {
		return p
	}
	mod := o.P

	z1z1 := new(big.Int).Mul(p.z, p.z)
	z1z1.Mod(z1z1, mod)
	z2z2 := new(big.Int).Mul(q.z, q.z)
	z2z2.Mod(z2z2, mod)

	u1 := new(big.Int).Mul(p.x, z2z2)
	u1.Mod(u1, mod)
	u2 := new(big.Int).Mul(q.x, z1z1)
	u2.Mod(u2, mod)

	s1 := new(big.Int).Mul(p.y, q.z)
	s1.Mul(s1, z2z2)
	s1.Mod(s1, mod)
	s2 := new(big.Int).Mul(q.y, p.z)
	s2.Mul(s2, z1z1)
	s2.Mod(s2, mod)

	if u1.Cmp(u2) == 0 {
		if s1.Cmp(s2) != 0 {
			return bigInfinity()
		}
		return o.double(p)
	}

	h := new(big.Int).Sub(u2, u1)
	h.Mod(h, mod)
	if h.Sign() < 0 {
		h.Add(h, mod)
	}
	r := new(big.Int).Sub(s2, s1)
	r.Mod(r, mod)
	if r.Sign() < 0 {
		r.Add(r, mod)
	}

	h2 := new(big.Int).Mul(h, h)
	h2.Mod(h2, mod)
	h3 := new(big.Int).Mul(h2, h)
	h3.Mod(h3, mod)
	u1h2 := new(big.Int).Mul(u1, h2)
	u1h2.Mod(u1h2, mod)

	x3 := new(big.Int).Mul(r, r)
	x3.Sub(x3, h3)
	x3.Sub(x3, new(big.Int).Lsh(u1h2, 1))
	x3.Mod(x3, mod)
	if x3.Sign() < 0 {
		x3.Add(x3, mod)
	}

	y3 := new(big.Int).Sub(u1h2, x3)
	y3.Mul(y3, r)
	s1h3 := new(big.Int).Mul(s1, h3)
	y3.Sub(y3, s1h3)
	y3.Mod(y3, mod)
	if y3.Sign() < 0 {
		y3.Add(y3, mod)
	}

	z3 := new(big.Int).Mul(p.z, q.z)
	z3.Mul(z3, h)
	z3.Mod(z3, mod)

	return bigJacobian{x: x3, y: y3, z: z3}
}

// scalarMult computes k·p with a 4-bit fixed window. k must already be
// reduced modulo the group order and non-zero.
func (o oracle) scalarMult(p bigJacobian, k *big.Int) bigJacobian {
	// Precompute 1p..15p.
	var table [16]bigJacobian
	table[0] = bigInfinity()
	table[1] = p
	for i := 2; i < 16; i++ {
		if i%2 == 0 {
			table[i] = o.double(table[i/2])
		} else {
			table[i] = o.add(table[i-1], p)
		}
	}

	acc := bigInfinity()
	bytes := k.Bytes()
	for _, b := range bytes {
		for _, nibble := range [2]byte{b >> 4, b & 0x0f} {
			if !acc.isInfinity() {
				acc = o.double(acc)
				acc = o.double(acc)
				acc = o.double(acc)
				acc = o.double(acc)
			}
			if nibble != 0 {
				acc = o.add(acc, table[nibble])
			}
		}
	}
	return acc
}
