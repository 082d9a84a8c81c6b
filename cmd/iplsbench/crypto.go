package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"time"

	"ipls/internal/group"
	"ipls/internal/pedersen"
	"ipls/internal/scalar"
)

// cryptoExperiment benchmarks the parallel + precomputed crypto hot path
// against the sequential baselines: parallel vs sequential Pippenger
// (the n=4096 speedup), fixed-base-table commits vs sequential Pippenger
// at the widths the tables serve, and one batched random-linear-combination
// verification vs the per-upload Verify loop it replaces.
func cryptoExperiment() error {
	fmt.Printf("== Crypto hot path: parallel + precomputed (secp256k1, GOMAXPROCS=%d) ==\n",
		runtime.GOMAXPROCS(0))
	curve := group.Secp256k1()
	field := scalar.NewField(curve.N)
	quant, err := scalar.NewQuantizer(field, scalar.DefaultShift)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(4))
	randVec := func(n int) ([]*big.Int, error) {
		v := make([]*big.Int, n)
		for i := range v {
			s, err := quant.Encode(rng.NormFloat64())
			if err != nil {
				return nil, err
			}
			v[i] = s
		}
		return v, nil
	}

	fmt.Printf("%-8s %14s %14s %10s\n", "n", "pippenger", "parallel", "speedup")
	for _, n := range []int{256, 1024, 4096} {
		points := make([]group.Point, n)
		for i := range points {
			points[i] = curve.HashToPoint("crypto", i)
		}
		scalars, err := randVec(n)
		if err != nil {
			return err
		}
		start := time.Now()
		seq, err := curve.MultiScalarMult(points, scalars, group.StrategyPippenger)
		if err != nil {
			return err
		}
		seqDur := time.Since(start)
		start = time.Now()
		par, err := curve.MultiScalarMult(points, scalars, group.StrategyParallel)
		if err != nil {
			return err
		}
		parDur := time.Since(start)
		if !par.Equal(seq) {
			return fmt.Errorf("crypto: parallel multiexp disagrees with sequential at n=%d", n)
		}
		speedup := float64(seqDur) / float64(parDur)
		fmt.Printf("%-8d %14s %14s %9.2fx\n", n, round(seqDur), round(parDur), speedup)
		recordGauge("bench_crypto_parallel_speedup", speedup, "n", fmt.Sprint(n))
	}

	// Commit's auto route reads the Setup-built generator tables only up to
	// 96 elements (wider commits take Pippenger), so the two columns are
	// compared at train-mlp's 49-element width and at the band's edge.
	fmt.Printf("\n%-8s %14s %14s\n", "commit n", "pippenger", "precomputed")
	params, err := pedersen.Setup(curve, 512, "crypto-bench")
	if err != nil {
		return err
	}
	for _, n := range []int{49, 96} {
		v, err := randVec(n)
		if err != nil {
			return err
		}
		start := time.Now()
		base, err := params.CommitWith(v, group.StrategyPippenger)
		if err != nil {
			return err
		}
		baseDur := time.Since(start)
		start = time.Now()
		pre, err := params.Commit(v)
		if err != nil {
			return err
		}
		preDur := time.Since(start)
		if !pre.Equal(base) {
			return fmt.Errorf("crypto: precomputed commit disagrees at n=%d", n)
		}
		// Sub-millisecond commits: print µs, not round()'s milliseconds.
		fmt.Printf("%-8d %14s %14s\n", n, baseDur.Round(time.Microsecond), preDur.Round(time.Microsecond))
		recordGauge("bench_crypto_precomputed_seconds", preDur.Seconds(), "n", fmt.Sprint(n))
	}

	fmt.Printf("\n%-10s %14s %14s\n", "uploads", "verify loop", "batch verify")
	const vecLen = 128
	for _, m := range []int{4, 16} {
		vecs := make([][]*big.Int, m)
		cs := make([]pedersen.Commitment, m)
		for j := 0; j < m; j++ {
			if vecs[j], err = randVec(vecLen); err != nil {
				return err
			}
			if cs[j], err = params.Commit(vecs[j]); err != nil {
				return err
			}
		}
		start := time.Now()
		for j := 0; j < m; j++ {
			ok, err := params.Verify(vecs[j], cs[j])
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("crypto: honest upload %d rejected", j)
			}
		}
		loopDur := time.Since(start)
		start = time.Now()
		ok, err := params.BatchVerify(vecs, cs)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("crypto: honest batch of %d rejected", m)
		}
		batchDur := time.Since(start)
		fmt.Printf("%-10d %14s %14s\n", m, round(loopDur), round(batchDur))
		recordGauge("bench_crypto_batch_verify_seconds", batchDur.Seconds(), "m", fmt.Sprint(m))
	}
	return nil
}
