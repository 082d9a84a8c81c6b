package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"ipls/internal/core"
	"ipls/internal/storage"
)

// roundTrace is what must not change when the probe is attached.
type roundTrace struct {
	avgBits     [][]uint64
	cleaned     []int
	stored      []int64
	announced   []int
	publishes   int
	verifies    int
	counters    map[string]int64
	transport   float64
	probeWasHit bool
}

// sessionCounters are the session's own counters the wrappers must not
// move: merge-and-download, batch verification and publication counts.
var sessionCounters = []string{
	"gradients_uploaded_total", "updates_collected_total", "merge_downloads_total",
	"batch_verify_total", "batch_verify_fail_total", "verification_pass_total",
	"verification_fail_total", "globals_published_total", "globals_rejected_total",
}

// drive runs rounds of the workload on a bare or probed stack, cleaning
// up after every round, and records everything the probe must leave
// unchanged.
func drive(t *testing.T, w *workload, p *probe, rounds int) roundTrace {
	t.Helper()
	const seed = 7
	in, _, err := newInstance(w, 0, seed, p, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	if p != nil {
		in.sess.SetSpans(p.spans)
		in.net.SetSpans(p.spans)
		defer p.installHooks()()
	}
	ctx := context.Background()
	var task *core.Task
	if w.train {
		data, err := newMLPData(seed)
		if err != nil {
			t.Fatal(err)
		}
		if task, err = in.newTask(data); err != nil {
			t.Fatal(err)
		}
	}
	var tr roundTrace
	for round := 0; round < rounds; round++ {
		var res *core.IterationResult
		if w.train {
			_, res, err = task.RunRound(ctx, nil)
		} else {
			deltas := syntheticDeltas(in.cfg, seed, round)
			res, err = in.sess.RunIteration(ctx, round, deltas, nil)
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		bits := make([]uint64, len(res.AvgDelta))
		for i, v := range res.AvgDelta {
			bits[i] = math.Float64bits(v)
		}
		tr.avgBits = append(tr.avgBits, bits)
		announced := 0
		for part := 0; part < in.cfg.Spec.Partitions; part++ {
			msgs, _ := in.net.Listen(storage.Topic(in.cfg.TaskID, round, part), 0)
			announced += len(msgs)
		}
		tr.announced = append(tr.announced, announced)
		n, err := in.sess.CleanupIteration(ctx, round)
		if err != nil {
			t.Fatalf("cleanup round %d: %v", round, err)
		}
		tr.cleaned = append(tr.cleaned, n)
		tr.stored = append(tr.stored, in.net.TotalStoredBytes())
	}
	stats := in.dir.Stats()
	tr.publishes, tr.verifies = stats.Publishes, stats.Verifications
	tr.counters = make(map[string]int64)
	for _, name := range sessionCounters {
		tr.counters[name] = in.sessReg.Counter(name).Value()
	}
	if p != nil {
		tr.transport = p.get("transport.calls")
		tr.probeWasHit = p.get("storage.put_calls") > 0 && p.get("directory.poll_calls") > 0
	}
	return tr
}

// TestWrappersAreTransparent runs every workload's configuration on the
// bare stack and on the probed one and requires the same protocol
// outcome: identical AvgDelta bits, directory publishes and verifications,
// merge-download, pub/sub and batch-verify counts, cleanup block counts
// and the bytes left stored after cleanup. A wrapper that hid a capability the session asserts for (such as
// RecordsForIter or DeleteAll) would fail the cleanup or change a count.
func TestWrappersAreTransparent(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			bare := drive(t, w, nil, 2)
			p := newProbe()
			probed := drive(t, w, p, 2)
			if !probed.probeWasHit {
				t.Fatal("the probe recorded no storage or directory calls")
			}
			if w.tcp != (probed.transport > 0) {
				t.Errorf("transport.calls = %v on a tcp=%v workload", probed.transport, w.tcp)
			}
			for r := range bare.avgBits {
				if len(bare.avgBits[r]) != len(probed.avgBits[r]) {
					t.Fatalf("round %d: AvgDelta length %d vs %d", r, len(bare.avgBits[r]), len(probed.avgBits[r]))
				}
				for i := range bare.avgBits[r] {
					if bare.avgBits[r][i] != probed.avgBits[r][i] {
						t.Fatalf("round %d: AvgDelta[%d] differs", r, i)
					}
				}
				if bare.cleaned[r] != probed.cleaned[r] || bare.cleaned[r] == 0 {
					t.Errorf("round %d: cleanup removed %d blocks bare, %d probed", r, bare.cleaned[r], probed.cleaned[r])
				}
				if bare.stored[r] != probed.stored[r] {
					t.Errorf("round %d: %d bytes stored after cleanup bare, %d probed", r, bare.stored[r], probed.stored[r])
				}
				if bare.announced[r] != probed.announced[r] {
					t.Errorf("round %d: %d pub/sub announcements bare, %d probed", r, bare.announced[r], probed.announced[r])
				}
			}
			if bare.publishes != probed.publishes || bare.verifies != probed.verifies {
				t.Errorf("directory publishes/verifications %d/%d bare, %d/%d probed",
					bare.publishes, bare.verifies, probed.publishes, probed.verifies)
			}
			for _, name := range sessionCounters {
				if bare.counters[name] != probed.counters[name] {
					t.Errorf("%s = %d bare, %d probed", name, bare.counters[name], probed.counters[name])
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric lists in
// step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	layers := layerMetrics()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layers[i].name || m.Unit != layers[i].unit || m.Better != layers[i].better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the program", i, m, layers[i])
		}
	}
	units := map[string]string{}
	for _, m := range endToEndMetrics {
		units[m.name] = m.unit
	}
	if len(spec.EndToEnd) != len(units) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(units))
	}
	for _, m := range spec.EndToEnd {
		if units[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, units[m.Name])
		}
	}
}
