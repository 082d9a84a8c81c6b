package group

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"runtime/pprof"
)

// MultiExpStrategy selects the multi-scalar-multiplication algorithm used to
// evaluate ∏ pᵢ^{kᵢ}. The paper's commitment implementation is the Naive
// one; Windowed and Pippenger implement the multi-exponentiation
// optimizations it cites as future work (Möller '01; Borges et al. '17).
// Parallel splits Pippenger's per-window bucket accumulation across
// cores, and Precomputed uses fixed-base window tables (see FixedBase) —
// the two optimizations that matter when the bases are long-lived Pedersen
// generators committed to every iteration.
type MultiExpStrategy int

const (
	// StrategyAuto picks a strategy based on input size and parallelism.
	StrategyAuto MultiExpStrategy = iota + 1
	// StrategyNaive computes each scalar multiplication independently.
	StrategyNaive
	// StrategyWindowed uses shared-doubling with per-base 4-bit tables.
	StrategyWindowed
	// StrategyPippenger uses the bucket method with signed-scalar recoding.
	StrategyPippenger
	// StrategyParallel is Pippenger with the window bucket sums computed
	// concurrently by up to GOMAXPROCS workers.
	StrategyParallel
	// StrategyPrecomputed uses fixed-base window tables. Through
	// MultiScalarMult the tables are built ad hoc (useful for differential
	// testing); callers with long-lived bases should build FixedBase
	// tables once and use MultiScalarMultFixed instead.
	StrategyPrecomputed
)

// String returns the strategy name.
func (s MultiExpStrategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyNaive:
		return "naive"
	case StrategyWindowed:
		return "windowed"
	case StrategyPippenger:
		return "pippenger"
	case StrategyParallel:
		return "parallel"
	case StrategyPrecomputed:
		return "precomputed"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// autoStrategy resolves StrategyAuto for an input of n points: tiny
// inputs skip shared-table setup, mid-size inputs use windowed sharing,
// and large inputs use Pippenger — parallelized across windows when more
// than one worker is available.
func (c *Curve) autoStrategy(n int) MultiExpStrategy {
	switch {
	case n < 4:
		return StrategyNaive
	case n < 32:
		return StrategyWindowed
	case n >= parallelMinPoints && c.workers() > 1:
		return StrategyParallel
	default:
		return StrategyPippenger
	}
}

// MultiScalarMult computes ∑ kᵢ·pᵢ (written multiplicatively in the paper:
// ∏ pᵢ^{kᵢ}). Scalars are reduced modulo the group order.
func (c *Curve) MultiScalarMult(points []Point, scalars []*big.Int, strategy MultiExpStrategy) (Point, error) {
	if len(points) != len(scalars) {
		return Point{}, fmt.Errorf("group: %d points but %d scalars", len(points), len(scalars))
	}
	if len(points) == 0 {
		return Point{}, errors.New("group: empty multi-scalar multiplication")
	}
	if strategy == StrategyAuto {
		strategy = c.autoStrategy(len(points))
	}
	defer accountOp("multiexp_"+strategy.String(), len(points))()
	var pt Point
	err := fmt.Errorf("group: unknown strategy %v", strategy)
	// pprof.Do labels the CPU samples of the dominant cost (Fig. 3:
	// commitment computation) so profiles slice by strategy. It replaces
	// any caller-set span labels for the duration — the crypto hot path
	// is deliberately attributed to itself, not its calling phase.
	pprof.Do(context.Background(), pprof.Labels(
		"phase", "multiexp", "strategy", strategy.String(),
	), func(context.Context) {
		switch strategy {
		case StrategyNaive:
			pt, err = c.multiExpNaive(points, scalars), nil
		case StrategyWindowed:
			pt, err = c.multiExpWindowed(points, scalars), nil
		case StrategyPippenger:
			pt, err = c.multiExpPippenger(points, scalars), nil
		case StrategyParallel:
			pt, err = c.multiExpPippengerParallel(points, scalars), nil
		case StrategyPrecomputed:
			bases := make([]*FixedBase, len(points))
			for i := range points {
				bases[i] = c.NewFixedBase(points[i])
			}
			pt, err = c.multiExpFixed(bases, scalars), nil
		}
	})
	if err != nil {
		return Point{}, err
	}
	return pt, nil
}

// multiExpNaive computes each scalar multiplication independently (the
// paper's implementation), with the variable-time windowed ladder.
func (c *Curve) multiExpNaive(points []Point, scalars []*big.Int) Point {
	acc := c.jacobianInfinity()
	for i := range points {
		k := c.reduceScalar(scalars[i])
		acc = c.jacAdd(acc, c.jacScalarMult(c.toAffine(points[i]), &k))
	}
	return c.fromJacobian(acc)
}

// recodeSigned reduces k modulo the order and, when the result lies in the
// top half of the field, replaces k by order−k and reports that the base
// must be negated. This keeps the effective scalar bit-length small for
// fixed-point-encoded gradients, where negative values would otherwise
// wrap to ~256-bit scalars.
func (c *Curve) recodeSigned(k *big.Int) (scalarLimbs, bool) {
	kr := c.reduceScalar(k)
	for i := 3; i >= 0; i-- {
		if kr[i] != c.halfN[i] {
			if kr[i] < c.halfN[i] {
				return kr, false
			}
			var r scalarLimbs
			var b uint64
			r[0], b = bits.Sub64(c.nLimbs[0], kr[0], 0)
			r[1], b = bits.Sub64(c.nLimbs[1], kr[1], b)
			r[2], b = bits.Sub64(c.nLimbs[2], kr[2], b)
			r[3], _ = bits.Sub64(c.nLimbs[3], kr[3], b)
			return r, true
		}
	}
	return kr, false
}

// recodeAll signed-recodes every (point, scalar) pair into affine limb
// form, returning the recoded scalars and the maximum scalar bit length.
func (c *Curve) recodeAll(points []Point, scalars []*big.Int) ([]affinePoint, []scalarLimbs, int) {
	n := len(points)
	apoints := make([]affinePoint, n)
	recoded := make([]scalarLimbs, n)
	maxBits := 0
	for i := range points {
		k, neg := c.recodeSigned(scalars[i])
		recoded[i] = k
		apoints[i] = c.toAffine(points[i])
		if neg {
			apoints[i] = c.affineNeg(apoints[i])
		}
		if bl := k.bitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	return apoints, recoded, maxBits
}

func (c *Curve) multiExpWindowed(points []Point, scalars []*big.Int) Point {
	const w = 4
	apoints, recoded, maxBits := c.recodeAll(points, scalars)
	if maxBits == 0 {
		return Infinity()
	}
	tables := make([][16]jacobianPoint, len(apoints))
	for i := range apoints {
		tables[i] = c.windowTable(apoints[i])
	}
	windows := (maxBits + w - 1) / w
	acc := c.jacobianInfinity()
	for win := windows - 1; win >= 0; win-- {
		for d := 0; d < w; d++ {
			acc = c.jacDouble(acc)
		}
		for i := range recoded {
			if digit := recoded[i].digit(win, w); digit != 0 {
				acc = c.jacAdd(acc, tables[i][digit])
			}
		}
	}
	return c.fromJacobian(acc)
}

// pippengerMinPoints is the crossover below which Pippenger's 2^w bucket
// setup costs more than it saves: with n ≤ 2 every bucket holds at most
// one point, so the bucket pass degenerates into the windowed walk plus
// pure overhead. Such inputs fall through to the windowed strategy.
const pippengerMinPoints = 3

func (c *Curve) multiExpPippenger(points []Point, scalars []*big.Int) Point {
	if len(points) < pippengerMinPoints {
		return c.multiExpWindowed(points, scalars)
	}
	apoints, recoded, maxBits := c.recodeAll(points, scalars)
	if maxBits == 0 {
		return Infinity()
	}
	w := pippengerWindow(len(points))
	windows := (maxBits + w - 1) / w
	buckets := make([]jacobianPoint, 1<<w)
	acc := c.jacobianInfinity()
	for win := windows - 1; win >= 0; win-- {
		for d := 0; d < w; d++ {
			acc = c.jacDouble(acc)
		}
		acc = c.jacAdd(acc, c.windowBucketSum(apoints, recoded, win, w, buckets))
	}
	return c.fromJacobian(acc)
}

// windowBucketSum computes one window's contribution ∑ digit·bucket[digit]
// over all points: bucket accumulation (mixed additions of the affine
// bases) followed by the running-sum trick. The caller provides the bucket
// scratch (reused across windows); apoints and recoded are only read, so
// concurrent calls on disjoint windows with per-worker scratch are safe.
func (c *Curve) windowBucketSum(apoints []affinePoint, recoded []scalarLimbs, win, w int, buckets []jacobianPoint) jacobianPoint {
	inf := c.jacobianInfinity()
	for b := range buckets {
		buckets[b] = inf
	}
	used := false
	for i := range recoded {
		if digit := recoded[i].digit(win, w); digit != 0 {
			buckets[digit] = c.jacAddMixed(buckets[digit], &apoints[i])
			used = true
		}
	}
	if !used {
		return inf
	}
	// Bucket aggregation: ∑ b·bucket[b] via the running-sum trick.
	running, sum := inf, inf
	for b := len(buckets) - 1; b >= 1; b-- {
		running = c.jacAdd(running, buckets[b])
		sum = c.jacAdd(sum, running)
	}
	return sum
}

// pippengerWindow picks a bucket window size that balances the per-window
// bucket-aggregation cost (2^w adds) against the per-point cost.
func pippengerWindow(n int) int {
	switch {
	case n < 64:
		return 4
	case n < 512:
		return 6
	case n < 4096:
		return 8
	case n < 65536:
		return 10
	default:
		return 12
	}
}
