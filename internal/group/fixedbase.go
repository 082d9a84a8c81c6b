package group

import (
	"errors"
	"fmt"
	"math/big"
)

// fixedBaseWindow is the digit width of a FixedBase table. 4 bits gives a
// 16-entry table: 1 KiB per generator as affine limb points (two 32-byte
// coordinates per entry). Pedersen generator sets are per-session and
// long-lived, so the table amortizes across every commitment of a
// training run.
const fixedBaseWindow = 4

// FixedBase is a precomputed window table for one long-lived base point.
// Entry d holds d·P in affine form, so a multiexp over fixed bases skips
// the per-call table build that multiExpWindowed pays and walks with mixed
// additions. The table is immutable after NewFixedBase returns and safe
// for concurrent readers.
type FixedBase struct {
	table [1 << fixedBaseWindow]affinePoint
}

// NewFixedBase precomputes the window table for p, normalising it to
// affine with one inversion. An infinity base yields a table of
// infinities, contributing nothing to any multiexp.
func (c *Curve) NewFixedBase(p Point) *FixedBase {
	fb := &FixedBase{}
	jac := c.windowTable(c.toAffine(p))
	c.normalize(fb.table[:], jac[:])
	return fb
}

// MultiScalarMultFixed computes ∑ kᵢ·basesᵢ using precomputed window
// tables. It is the fixed-base analogue of MultiScalarMult: same result,
// but the shared-doubling walk reads table entries instead of building
// per-base tables per call.
func (c *Curve) MultiScalarMultFixed(bases []*FixedBase, scalars []*big.Int) (Point, error) {
	if len(bases) != len(scalars) {
		return Point{}, fmt.Errorf("group: %d bases but %d scalars", len(bases), len(scalars))
	}
	if len(bases) == 0 {
		return Point{}, errors.New("group: empty multi-scalar multiplication")
	}
	defer accountOp("multiexp_precomputed", len(bases))()
	return c.multiExpFixed(bases, scalars), nil
}

// multiExpFixed is the shared-doubling windowed walk over precomputed
// tables. Signed recoding still applies — scalars in the top half of the
// order flip to (order−k, −d·P) — with the negation applied lazily to the
// table entry at lookup time (one field subtraction, far cheaper than
// storing a negated table).
func (c *Curve) multiExpFixed(bases []*FixedBase, scalars []*big.Int) Point {
	const w = fixedBaseWindow
	recoded := make([]scalarLimbs, len(scalars))
	negate := make([]bool, len(scalars))
	maxBits := 0
	for i := range scalars {
		recoded[i], negate[i] = c.recodeSigned(scalars[i])
		if bl := recoded[i].bitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	if maxBits == 0 {
		return Infinity()
	}
	windows := (maxBits + w - 1) / w
	acc := c.jacobianInfinity()
	for win := windows - 1; win >= 0; win-- {
		for d := 0; d < w; d++ {
			acc = c.jacDouble(acc)
		}
		for i := range recoded {
			digit := recoded[i].digit(win, w)
			if digit == 0 {
				continue
			}
			entry := bases[i].table[digit]
			if negate[i] {
				entry = c.affineNeg(entry)
			}
			acc = c.jacAddMixed(acc, &entry)
		}
	}
	return c.fromJacobian(acc)
}
