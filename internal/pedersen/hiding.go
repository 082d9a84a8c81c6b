package pedersen

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"ipls/internal/group"
)

// The protocol's commitments are deliberately deterministic (binding-only):
// the directory must be able to accumulate them publicly and verify the
// aggregate, and gradients travel in the clear anyway. This file adds the
// classic *hiding* Pedersen variant — C = h^r · ∏ hᵢ^{vᵢ} with a random
// blinding factor r — the building block used by VeriFL-style private
// verifiable aggregation (the paper's [3]), where gradients are masked and
// only commitments are public. The homomorphism extends to openings:
// Combine(C₁, C₂) opens to (v₁+v₂, r₁+r₂ mod N).

// Opening is the secret pre-image of a hiding commitment.
type Opening struct {
	Values   []*big.Int
	Blinding *big.Int
}

// blindingLabel domain-separates the blinding generator from the vector
// generators, so its discrete log relative to them is unknown.
const blindingLabel = "/blinding"

// BlindingGenerator returns the generator the blinding factor multiplies.
func (p *Params) BlindingGenerator() group.Point {
	p.mu.Lock()
	if p.blinding.IsInfinity() {
		p.blinding = p.curve.HashToPoint(p.label+blindingLabel, 0)
	}
	h := p.blinding.Clone()
	p.mu.Unlock()
	return h
}

// NewBlinding samples a uniformly random blinding factor.
func (p *Params) NewBlinding() (*big.Int, error) {
	r, err := rand.Int(rand.Reader, p.curve.N)
	if err != nil {
		return nil, fmt.Errorf("pedersen: sample blinding: %w", err)
	}
	return r, nil
}

// CommitHiding commits to v under blinding factor r.
func (p *Params) CommitHiding(v []*big.Int, r *big.Int) (Commitment, error) {
	if len(v) == 0 {
		return nil, errors.New("pedersen: cannot commit to an empty vector")
	}
	if r == nil {
		return nil, errors.New("pedersen: nil blinding factor")
	}
	point, err := p.commitPoint(v, group.StrategyAuto)
	if err != nil {
		return nil, fmt.Errorf("pedersen: %w", err)
	}
	// r is secret, so r·h takes the constant-time ScalarMult; only the
	// public values go through the variable-time multiexp.
	blind := p.curve.ScalarMult(p.BlindingGenerator(), r)
	return Commitment(p.curve.Encode(p.curve.Add(blind, point))), nil
}

// VerifyOpening reports whether (o.Values, o.Blinding) opens c.
func (p *Params) VerifyOpening(c Commitment, o Opening) (bool, error) {
	want, err := p.CommitHiding(o.Values, o.Blinding)
	if err != nil {
		return false, err
	}
	return want.Equal(c), nil
}

// CombineOpenings adds openings element-wise (values in the field, the
// blinding factors mod the group order), matching Combine on the
// commitments.
func (p *Params) CombineOpenings(os ...Opening) (Opening, error) {
	if len(os) == 0 {
		return Opening{}, errors.New("pedersen: nothing to combine")
	}
	vecs := make([][]*big.Int, len(os))
	blind := new(big.Int)
	for i, o := range os {
		vecs[i] = o.Values
		if o.Blinding == nil {
			return Opening{}, fmt.Errorf("pedersen: opening %d has no blinding", i)
		}
		blind = p.field.Add(blind, p.field.Reduce(o.Blinding))
	}
	sum, err := p.field.SumVecs(vecs...)
	if err != nil {
		return Opening{}, fmt.Errorf("pedersen: %w", err)
	}
	return Opening{Values: sum, Blinding: blind}, nil
}
