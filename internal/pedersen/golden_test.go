package pedersen

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ipls/internal/group"
)

// Golden commitment vectors. Durable directory snapshots and mixed-version
// nodes exchange commitments and generators as raw encodings, so every
// backend change must reproduce them byte for byte. The file was recorded
// once and is only rewritten deliberately:
//
//	go test ./internal/pedersen -run TestGoldenVectors -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current implementation")

const goldenPath = "testdata/golden.json"

type goldenCurve struct {
	HashToPoint []goldenHash   `json:"hash_to_point"`
	Commit      []goldenCommit `json:"commit"`
}

type goldenHash struct {
	Label string `json:"label"`
	Index int    `json:"index"`
	Enc   string `json:"enc"`
}

type goldenCommit struct {
	Name string `json:"name"`
	Enc  string `json:"enc"`
}

var goldenHashIndices = []int{0, 1, 2, 7, 512}

// goldenVectors returns the seeded commit inputs for one curve, keyed by a
// stable name: for each n ∈ {1, 3, 49, 513} a "small" vector (fixed-point
// encoded N(0, 0.01) gradients, negatives wrapped mod N) and a "wide" one
// (uniform 256-bit scalars with 0, 1 and N−1 at the front), plus the three
// single-element edge vectors.
func goldenVectors(c *group.Curve) ([]string, map[string][]*big.Int) {
	rng := rand.New(rand.NewSource(20221012))
	nm1 := new(big.Int).Sub(c.N, big.NewInt(1))
	edges := []*big.Int{big.NewInt(0), big.NewInt(1), nm1}
	var names []string
	vecs := map[string][]*big.Int{}
	add := func(name string, v []*big.Int) {
		names = append(names, name)
		vecs[name] = v
	}
	for _, n := range []int{1, 3, 49, 513} {
		small := make([]*big.Int, n)
		for i := range small {
			g := int64(math.Round(rng.NormFloat64() * 0.01 * (1 << 24)))
			small[i] = new(big.Int).Mod(big.NewInt(g), c.N)
		}
		add(fmt.Sprintf("small/n=%d", n), small)
		wide := make([]*big.Int, n)
		for i := range wide {
			if i < len(edges) && n >= len(edges) {
				wide[i] = new(big.Int).Set(edges[i])
				continue
			}
			b := make([]byte, 32)
			rng.Read(b)
			wide[i] = new(big.Int).Mod(new(big.Int).SetBytes(b), c.N)
		}
		add(fmt.Sprintf("wide/n=%d", n), wide)
	}
	for i, e := range []string{"zero", "one", "order-1"} {
		add("edge/"+e, []*big.Int{new(big.Int).Set(edges[i])})
	}
	return names, vecs
}

func goldenCurves() []*group.Curve {
	return []*group.Curve{group.Secp256k1(), group.Secp256r1(), group.Secp256r1Fast()}
}

func computeGolden(t *testing.T, c *group.Curve) goldenCurve {
	t.Helper()
	var g goldenCurve
	for _, idx := range goldenHashIndices {
		g.HashToPoint = append(g.HashToPoint, goldenHash{
			Label: "golden", Index: idx,
			Enc: hex.EncodeToString(c.Encode(c.HashToPoint("golden", idx))),
		})
	}
	p, err := Setup(c, 0, "golden")
	if err != nil {
		t.Fatal(err)
	}
	names, vecs := goldenVectors(c)
	for _, name := range names {
		com, err := p.Commit(vecs[name])
		if err != nil {
			t.Fatal(err)
		}
		g.Commit = append(g.Commit, goldenCommit{Name: name, Enc: hex.EncodeToString(com)})
	}
	return g
}

// TestGoldenVectors asserts that generators and commitments are
// byte-identical to the recorded encodings on every curve name, and that
// every explicit multiexp strategy reproduces them.
func TestGoldenVectors(t *testing.T) {
	if *updateGolden {
		out := map[string]goldenCurve{}
		for _, c := range goldenCurves() {
			out[c.Name] = computeGolden(t, c)
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenCurve
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCurves() {
		w, ok := want[c.Name]
		if !ok {
			t.Fatalf("no golden vectors for %s", c.Name)
		}
		got := computeGolden(t, c)
		for i, h := range w.HashToPoint {
			if got.HashToPoint[i] != h {
				t.Errorf("%s: HashToPoint(%q, %d) = %s, want %s", c.Name, h.Label, h.Index, got.HashToPoint[i].Enc, h.Enc)
			}
		}
		for i, com := range w.Commit {
			if got.Commit[i] != com {
				t.Errorf("%s: Commit(%s) = %s, want %s", c.Name, com.Name, got.Commit[i].Enc, com.Enc)
			}
		}

		// Every explicit strategy must land on the same encodings.
		p, err := Setup(c, 0, "golden")
		if err != nil {
			t.Fatal(err)
		}
		names, vecs := goldenVectors(c)
		for i, name := range names {
			if len(vecs[name]) > 49 && testing.Short() {
				continue
			}
			for _, s := range []group.MultiExpStrategy{
				group.StrategyNaive, group.StrategyWindowed, group.StrategyPippenger,
				group.StrategyParallel, group.StrategyPrecomputed,
			} {
				com, err := p.CommitWith(vecs[name], s)
				if err != nil {
					t.Fatal(err)
				}
				if enc := hex.EncodeToString(com); enc != w.Commit[i].Enc {
					t.Errorf("%s: CommitWith(%s, %v) = %s, want %s", c.Name, name, s, enc, w.Commit[i].Enc)
				}
			}
		}
	}
}
