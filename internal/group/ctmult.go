package group

import (
	"crypto/subtle"
	"math/big"
)

// The constant-time scalar multiplication behind ScalarMult and
// ScalarBaseMult. Its scalar can be secret (the blinding factor of a
// hiding commitment), so it runs a fixed 4-bit window over all 64
// nibbles, reads table entries with a masked scan of all 16, and adds
// with the complete projective formulas of Renes, Costello and Batina
// ("Complete addition formulas for prime order elliptic curves", 2016),
// which need no branch for the identity or for doubling. The multiexp
// strategies stay on the faster variable-time Jacobian formulas: their
// scalars are public gradients.

// projPoint is a point in homogeneous projective coordinates:
// (X : Y : Z) represents (X/Z, Y/Z); the identity is (0 : 1 : 0).
type projPoint struct {
	x, y, z fe
}

// completeAdd returns p + q for any inputs, including p = q and the
// identity: Algorithm 7 of the paper for a = 0 and Algorithm 4 for a = −3.
func (c *Curve) completeAdd(p, q *projPoint) projPoint {
	f := c.f
	var t0, t1, t2, t3, t4, x3, y3, z3 fe
	f.mul(&t0, &p.x, &q.x)
	f.mul(&t1, &p.y, &q.y)
	f.mul(&t2, &p.z, &q.z)
	f.add(&t3, &p.x, &p.y)
	f.add(&t4, &q.x, &q.y)
	f.mul(&t3, &t3, &t4)
	f.add(&t4, &t0, &t1)
	f.sub(&t3, &t3, &t4) // X1Y2 + X2Y1
	f.add(&t4, &p.y, &p.z)
	f.add(&x3, &q.y, &q.z)
	f.mul(&t4, &t4, &x3)
	f.add(&x3, &t1, &t2)
	f.sub(&t4, &t4, &x3) // Y1Z2 + Y2Z1
	f.add(&x3, &p.x, &p.z)
	f.add(&y3, &q.x, &q.z)
	f.mul(&x3, &x3, &y3)
	f.add(&y3, &t0, &t2)
	f.sub(&y3, &x3, &y3) // X1Z2 + X2Z1
	if c.aZero {
		f.dbl(&x3, &t0)
		f.add(&t0, &x3, &t0)
		f.mul(&t2, &c.b3, &t2)
		f.add(&z3, &t1, &t2)
		f.sub(&t1, &t1, &t2)
		f.mul(&y3, &c.b3, &y3)
		f.mul(&x3, &t4, &y3)
		f.mul(&t2, &t3, &t1)
		f.sub(&x3, &t2, &x3)
		f.mul(&y3, &y3, &t0)
		f.mul(&t1, &t1, &z3)
		f.add(&y3, &t1, &y3)
		f.mul(&t0, &t0, &t3)
		f.mul(&z3, &z3, &t4)
		f.add(&z3, &z3, &t0)
		return projPoint{x3, y3, z3}
	}
	f.mul(&z3, &c.b, &t2)
	f.sub(&x3, &y3, &z3)
	f.dbl(&z3, &x3)
	f.add(&x3, &x3, &z3)
	f.sub(&z3, &t1, &x3)
	f.add(&x3, &t1, &x3)
	f.mul(&y3, &c.b, &y3)
	f.dbl(&t1, &t2)
	f.add(&t2, &t1, &t2)
	f.sub(&y3, &y3, &t2)
	f.sub(&y3, &y3, &t0)
	f.dbl(&t1, &y3)
	f.add(&y3, &t1, &y3)
	f.dbl(&t1, &t0)
	f.add(&t0, &t1, &t0)
	f.sub(&t0, &t0, &t2)
	f.mul(&t1, &t4, &y3)
	f.mul(&t2, &t0, &y3)
	f.mul(&y3, &x3, &z3)
	f.add(&y3, &y3, &t2)
	f.mul(&x3, &t3, &x3)
	f.sub(&x3, &x3, &t1)
	f.mul(&z3, &t4, &z3)
	f.mul(&t1, &t3, &t0)
	f.add(&z3, &z3, &t1)
	return projPoint{x3, y3, z3}
}

// ctScalarMult computes k·p in constant time with respect to k.
func (c *Curve) ctScalarMult(p Point, k *big.Int) Point {
	if p.IsInfinity() {
		return Point{}
	}
	a := c.toAffine(p)
	var table [16]projPoint
	table[0] = projPoint{y: c.f.one}
	table[1] = projPoint{x: a.x, y: a.y, z: c.f.one}
	for i := 2; i < len(table); i++ {
		table[i] = c.completeAdd(&table[i-1], &table[1])
	}

	// Reduce unconditionally so no branch depends on the scalar's range.
	kb := limbsOf(new(big.Int).Mod(k, c.N))
	acc := table[0]
	for i := 63; i >= 0; i-- {
		for d := 0; d < 4; d++ {
			acc = c.completeAdd(&acc, &acc)
		}
		nib := int32(kb[i/16]>>(4*(i%16))) & 0xf
		var e projPoint
		for j := range table {
			mask := -uint64(subtle.ConstantTimeEq(int32(j), nib))
			e.x.condSelect(mask, &table[j].x)
			e.y.condSelect(mask, &table[j].y)
			e.z.condSelect(mask, &table[j].z)
		}
		acc = c.completeAdd(&acc, &e)
	}

	if acc.z.isZero() {
		return Point{}
	}
	f := c.f
	var zInv, x, y fe
	f.inv(&zInv, &acc.z)
	f.mul(&x, &acc.x, &zInv)
	f.mul(&y, &acc.y, &zInv)
	return Point{X: f.toBig(&x), Y: f.toBig(&y)}
}
