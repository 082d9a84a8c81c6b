package group

import (
	"math/big"
	"math/bits"
)

// jacobianPoint is a point in Jacobian projective coordinates over the
// limb field: (X, Y, Z) represents the affine point (X/Z², Y/Z³). Z = 0 is
// the identity. The multiexp strategies are variable-time in their
// (public) scalars and run entirely in this representation.
type jacobianPoint struct {
	x, y, z fe
}

// affinePoint is an affine point over the limb field. (0, 0) is on
// neither curve (b ≠ 0), so it encodes the identity.
type affinePoint struct {
	x, y fe
}

func (j *jacobianPoint) isInfinity() bool { return j.z.isZero() }

func (a *affinePoint) isInfinity() bool { return a.x.isZero() && a.y.isZero() }

func (c *Curve) jacobianInfinity() jacobianPoint {
	return jacobianPoint{x: c.f.one, y: c.f.one}
}

// toAffine maps an API point into Montgomery form.
func (c *Curve) toAffine(p Point) affinePoint {
	if p.IsInfinity() {
		return affinePoint{}
	}
	return affinePoint{x: c.f.fromBig(p.X), y: c.f.fromBig(p.Y)}
}

func (c *Curve) toJacobian(p Point) jacobianPoint {
	return c.affineToJacobian(c.toAffine(p))
}

func (c *Curve) affineToJacobian(a affinePoint) jacobianPoint {
	if a.isInfinity() {
		return c.jacobianInfinity()
	}
	return jacobianPoint{x: a.x, y: a.y, z: c.f.one}
}

// fromJacobian maps a result back to the API, with one field inversion.
func (c *Curve) fromJacobian(j jacobianPoint) Point {
	if j.isInfinity() {
		return Point{}
	}
	f := c.f
	var zInv, zInv2, x, y fe
	f.inv(&zInv, &j.z)
	f.sqr(&zInv2, &zInv)
	f.mul(&x, &j.x, &zInv2)
	f.mul(&zInv2, &zInv2, &zInv)
	f.mul(&y, &j.y, &zInv2)
	return Point{X: f.toBig(&x), Y: f.toBig(&y)}
}

// normalize converts Jacobian points to affine with a single inversion
// (Montgomery's trick: invert the product of every z, then peel the
// individual inverses off it).
func (c *Curve) normalize(dst []affinePoint, src []jacobianPoint) {
	f := c.f
	prefix := make([]fe, len(src))
	acc := f.one
	for i := range src {
		prefix[i] = acc
		if !src[i].isInfinity() {
			f.mul(&acc, &acc, &src[i].z)
		}
	}
	var inv fe
	f.inv(&inv, &acc)
	for i := len(src) - 1; i >= 0; i-- {
		if src[i].isInfinity() {
			dst[i] = affinePoint{}
			continue
		}
		var zInv, zInv2 fe
		f.mul(&zInv, &inv, &prefix[i])
		f.mul(&inv, &inv, &src[i].z)
		f.sqr(&zInv2, &zInv)
		f.mul(&dst[i].x, &src[i].x, &zInv2)
		f.mul(&zInv2, &zInv2, &zInv)
		f.mul(&dst[i].y, &src[i].y, &zInv2)
	}
}

// jacDouble computes 2p with the a = 0 (dbl-2009-l) or a = −3
// (dbl-2001-b) shortcut; those are the only two curve shapes supported.
func (c *Curve) jacDouble(p jacobianPoint) jacobianPoint {
	if p.isInfinity() {
		return p
	}
	f := c.f
	var r jacobianPoint
	if c.aZero {
		// A = X², B = Y², C = B², D = 2((X+B)² − A − C), E = 3A,
		// X' = E² − 2D, Y' = E(D − X') − 8C, Z' = 2YZ.
		var a, b, cc, d, e, t fe
		f.sqr(&a, &p.x)
		f.sqr(&b, &p.y)
		f.sqr(&cc, &b)
		f.add(&d, &p.x, &b)
		f.sqr(&d, &d)
		f.sub(&d, &d, &a)
		f.sub(&d, &d, &cc)
		f.dbl(&d, &d)
		f.dbl(&e, &a)
		f.add(&e, &e, &a)
		f.sqr(&r.x, &e)
		f.dbl(&t, &d)
		f.sub(&r.x, &r.x, &t)
		f.mul(&r.z, &p.y, &p.z)
		f.dbl(&r.z, &r.z)
		f.sub(&t, &d, &r.x)
		f.mul(&r.y, &e, &t)
		f.dbl(&cc, &cc)
		f.dbl(&cc, &cc)
		f.dbl(&cc, &cc)
		f.sub(&r.y, &r.y, &cc)
		return r
	}
	// δ = Z², γ = Y², β = Xγ, α = 3(X − δ)(X + δ), X' = α² − 8β,
	// Z' = (Y + Z)² − γ − δ, Y' = α(4β − X') − 8γ².
	var delta, gamma, beta, alpha, t fe
	f.sqr(&delta, &p.z)
	f.sqr(&gamma, &p.y)
	f.mul(&beta, &p.x, &gamma)
	f.sub(&alpha, &p.x, &delta)
	f.add(&t, &p.x, &delta)
	f.mul(&alpha, &alpha, &t)
	f.dbl(&t, &alpha)
	f.add(&alpha, &alpha, &t)
	f.sqr(&r.x, &alpha)
	f.dbl(&beta, &beta)
	f.dbl(&beta, &beta) // 4β
	f.dbl(&t, &beta)
	f.sub(&r.x, &r.x, &t)
	f.add(&r.z, &p.y, &p.z)
	f.sqr(&r.z, &r.z)
	f.sub(&r.z, &r.z, &gamma)
	f.sub(&r.z, &r.z, &delta)
	f.sub(&t, &beta, &r.x)
	f.mul(&r.y, &alpha, &t)
	f.sqr(&gamma, &gamma)
	f.dbl(&gamma, &gamma)
	f.dbl(&gamma, &gamma)
	f.dbl(&gamma, &gamma)
	f.sub(&r.y, &r.y, &gamma)
	return r
}

// jacAdd computes p + q for arbitrary Jacobian inputs (add-2007-bl).
func (c *Curve) jacAdd(p, q jacobianPoint) jacobianPoint {
	if p.isInfinity() {
		return q
	}
	if q.isInfinity() {
		return p
	}
	f := c.f
	var z1z1, z2z2, u1, u2, s1, s2, h, rr fe
	f.sqr(&z1z1, &p.z)
	f.sqr(&z2z2, &q.z)
	f.mul(&u1, &p.x, &z2z2)
	f.mul(&u2, &q.x, &z1z1)
	f.mul(&s1, &p.y, &q.z)
	f.mul(&s1, &s1, &z2z2)
	f.mul(&s2, &q.y, &p.z)
	f.mul(&s2, &s2, &z1z1)
	f.sub(&h, &u2, &u1)
	f.sub(&rr, &s2, &s1)
	if h.isZero() {
		if rr.isZero() {
			return c.jacDouble(p)
		}
		return c.jacobianInfinity()
	}
	// I = (2H)², J = H·I, r = 2(S2 − S1), V = U1·I,
	// X' = r² − J − 2V, Y' = r(V − X') − 2·S1·J,
	// Z' = ((Z1 + Z2)² − Z1Z1 − Z2Z2)·H.
	var i, j, v, t fe
	var r jacobianPoint
	f.dbl(&i, &h)
	f.sqr(&i, &i)
	f.mul(&j, &h, &i)
	f.dbl(&rr, &rr)
	f.mul(&v, &u1, &i)
	f.sqr(&r.x, &rr)
	f.sub(&r.x, &r.x, &j)
	f.dbl(&t, &v)
	f.sub(&r.x, &r.x, &t)
	f.sub(&t, &v, &r.x)
	f.mul(&r.y, &rr, &t)
	f.mul(&t, &s1, &j)
	f.dbl(&t, &t)
	f.sub(&r.y, &r.y, &t)
	f.add(&r.z, &p.z, &q.z)
	f.sqr(&r.z, &r.z)
	f.sub(&r.z, &r.z, &z1z1)
	f.sub(&r.z, &r.z, &z2z2)
	f.mul(&r.z, &r.z, &h)
	return r
}

// jacAddMixed computes p + q for an affine q (madd-2007-bl), the bucket
// and table-walk step: it saves the q.z products of the general addition.
func (c *Curve) jacAddMixed(p jacobianPoint, q *affinePoint) jacobianPoint {
	if q.isInfinity() {
		return p
	}
	if p.isInfinity() {
		return c.affineToJacobian(*q)
	}
	f := c.f
	var z1z1, u2, s2, h, rr fe
	f.sqr(&z1z1, &p.z)
	f.mul(&u2, &q.x, &z1z1)
	f.mul(&s2, &q.y, &p.z)
	f.mul(&s2, &s2, &z1z1)
	f.sub(&h, &u2, &p.x)
	f.sub(&rr, &s2, &p.y)
	if h.isZero() {
		if rr.isZero() {
			return c.jacDouble(p)
		}
		return c.jacobianInfinity()
	}
	// HH = H², I = 4·HH, J = H·I, r = 2(S2 − Y1), V = X1·I,
	// X' = r² − J − 2V, Y' = r(V − X') − 2·Y1·J, Z' = (Z1 + H)² − Z1Z1 − HH.
	var hh, i, j, v, t fe
	var r jacobianPoint
	f.sqr(&hh, &h)
	f.dbl(&i, &hh)
	f.dbl(&i, &i)
	f.mul(&j, &h, &i)
	f.dbl(&rr, &rr)
	f.mul(&v, &p.x, &i)
	f.sqr(&r.x, &rr)
	f.sub(&r.x, &r.x, &j)
	f.dbl(&t, &v)
	f.sub(&r.x, &r.x, &t)
	f.sub(&t, &v, &r.x)
	f.mul(&r.y, &rr, &t)
	f.mul(&t, &p.y, &j)
	f.dbl(&t, &t)
	f.sub(&r.y, &r.y, &t)
	f.add(&r.z, &p.z, &h)
	f.sqr(&r.z, &r.z)
	f.sub(&r.z, &r.z, &z1z1)
	f.sub(&r.z, &r.z, &hh)
	return r
}

// affineNeg negates an affine point: (x, y) → (x, −y). Signed recoding
// flips some bases, and a FixedBase stores multiples of the un-negated
// generator only.
func (c *Curve) affineNeg(a affinePoint) affinePoint {
	if !a.isInfinity() {
		c.f.neg(&a.y, &a.y)
	}
	return a
}

// windowTable returns d·p for d = 0…15, the table of every 4-bit window
// walk.
func (c *Curve) windowTable(p affinePoint) [16]jacobianPoint {
	var table [16]jacobianPoint
	table[0] = c.jacobianInfinity()
	table[1] = c.affineToJacobian(p)
	for i := 2; i < len(table); i++ {
		if i%2 == 0 {
			table[i] = c.jacDouble(table[i/2])
		} else {
			table[i] = c.jacAddMixed(table[i-1], &p)
		}
	}
	return table
}

// jacScalarMult computes k·p with a 4-bit fixed window, skipping zero
// digits: the variable-time per-element step of the naive multiexp.
func (c *Curve) jacScalarMult(p affinePoint, k *scalarLimbs) jacobianPoint {
	table := c.windowTable(p)
	acc := c.jacobianInfinity()
	for win := (k.bitLen()+3)/4 - 1; win >= 0; win-- {
		for d := 0; d < 4; d++ {
			acc = c.jacDouble(acc)
		}
		if digit := k.digit(win, 4); digit != 0 {
			acc = c.jacAdd(acc, table[digit])
		}
	}
	return acc
}

// scalarLimbs is a reduced scalar as little-endian 64-bit limbs.
type scalarLimbs [4]uint64

// reduceScalar reduces k modulo the group order at the API boundary.
func (c *Curve) reduceScalar(k *big.Int) scalarLimbs {
	if k.Sign() < 0 || k.Cmp(c.N) >= 0 {
		k = new(big.Int).Mod(k, c.N)
	}
	return scalarLimbs(limbsOf(k))
}

func (k *scalarLimbs) bitLen() int {
	for i := 3; i >= 0; i-- {
		if k[i] != 0 {
			return 64*i + bits.Len64(k[i])
		}
	}
	return 0
}

// digit extracts the win-th w-bit digit of k (little-endian windows,
// w < 64).
func (k *scalarLimbs) digit(win, w int) int {
	bit := win * w
	limb, off := bit/64, uint(bit%64)
	if limb >= len(k) {
		return 0
	}
	d := k[limb] >> off
	if off+uint(w) > 64 && limb+1 < len(k) {
		d |= k[limb+1] << (64 - off)
	}
	return int(d & (1<<uint(w) - 1))
}
