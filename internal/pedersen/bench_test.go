package pedersen

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"ipls/internal/group"
	"ipls/internal/scalar"
)

func benchParams(b *testing.B, n int) (*Params, []*big.Int) {
	b.Helper()
	p, err := Setup(group.Secp256k1(), n, "bench")
	if err != nil {
		b.Fatal(err)
	}
	q, _ := scalar.NewQuantizer(p.Field(), scalar.DefaultShift)
	rng := rand.New(rand.NewSource(7))
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = (rng.Float64() - 0.5) * 10
	}
	v, err := q.EncodeVec(vec)
	if err != nil {
		b.Fatal(err)
	}
	return p, v
}

// BenchmarkCommit compares the sequential baseline (Pippenger), the
// precomputed fixed-base tables, and auto routing at the widths a
// partition commit actually sees: train-mlp's 49 elements, the table
// band's edge and a wide commit. Past the band StrategyPrecomputed would
// build throwaway tables on every call, so it runs only inside it.
func BenchmarkCommit(b *testing.B) {
	for _, n := range []int{49, commitFixedMax, 512} {
		p, v := benchParams(b, n)
		strategies := []group.MultiExpStrategy{group.StrategyPippenger, group.StrategyPrecomputed, group.StrategyAuto}
		if n > commitFixedMax {
			strategies = []group.MultiExpStrategy{group.StrategyPippenger, group.StrategyAuto}
		}
		for _, s := range strategies {
			b.Run(fmt.Sprintf("%s/n=%d", s, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := p.CommitWith(v, s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCommitParallel measures the parallel Pippenger commit path at a
// width past every auto crossover; compare against the pippenger rows of
// BenchmarkCommit for the per-core scaling.
func BenchmarkCommitParallel(b *testing.B) {
	for _, n := range []int{512, 4096} {
		p, v := benchParams(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.CommitWith(v, group.StrategyParallel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchVerify pits one random-linear-combination batch check
// against the per-upload Verify loop it replaces.
func BenchmarkBatchVerify(b *testing.B) {
	for _, m := range []int{4, 16} {
		const n = 64
		p, _ := benchParams(b, n)
		q, _ := scalar.NewQuantizer(p.Field(), scalar.DefaultShift)
		rng := rand.New(rand.NewSource(8))
		vecs := make([][]*big.Int, m)
		cs := make([]Commitment, m)
		for j := 0; j < m; j++ {
			vec := make([]float64, n)
			for i := range vec {
				vec[i] = (rng.Float64() - 0.5) * 10
			}
			v, err := q.EncodeVec(vec)
			if err != nil {
				b.Fatal(err)
			}
			vecs[j] = v
			if cs[j], err = p.Commit(v); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("batch/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := p.BatchVerify(vecs, cs)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					b.Fatal("honest batch rejected")
				}
			}
		})
		b.Run(fmt.Sprintf("loop/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range vecs {
					ok, err := p.Verify(vecs[j], cs[j])
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						b.Fatal("honest upload rejected")
					}
				}
			}
		})
	}
}
