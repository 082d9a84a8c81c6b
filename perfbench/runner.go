package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ipls/internal/core"
	"ipls/internal/obs"
	"ipls/internal/scalar"
)

// endToEndMetrics lists the untraced run's metrics.
var endToEndMetrics = []struct{ name, unit string }{
	{"iter_s_p50", "s"},
	{"grad_params_per_s", "1/s"},
	{"tta_s", "s"},
	{"cpu_s_per_iter", "s"},
	{"peak_rss_mb", "MiB"},
	{"round_ok_ratio", "ratio"},
	{"setup_s", "s"},
}

// runner executes one benchmark run of a workload.
type runner struct {
	w         *workload
	seed      int64
	budget    time.Duration
	storeRoot string

	attempted, failed int
	// data is train-mlp's generated data; reference is the loss
	// trajectory of the run's first training run, which every later
	// training run must repeat exactly.
	data      *mlpData
	reference []float64
	// ids numbers the run's sessions, so no two share a task ID.
	ids int
	// until is when the timed loop stops starting rounds. Set-up samples
	// taken between rounds push it back by the time they took.
	until time.Time
	// setupStart and setupEvery pace the set-up samples; setupEvery is
	// zero when the run takes none between rounds.
	setupStart time.Time
	setupEvery time.Duration
}

// setupStore is the store directory, under storeRoot, that every set-up
// sample of the TCP workload opens. The first sample creates it; every
// later one reopens it empty, as a restarted server reopens its store, so
// the samples do not time the creation of fresh directories, whose
// latency is the file system's and drifts several-fold within seconds.
const setupStore = "setup"

// samples collects one run's timings.
type samples struct {
	// iters and cpus are per round, excluding each session's first
	// (warm-up) round; rounds counts every round.
	iters, cpus []float64
	rounds      int
	ttas        []float64
	setups      []float64
	// peakRSS is the process's peak resident set when the first tta_s
	// target is reached, so it does not grow with the number of rounds a
	// faster run fits into its budget.
	peakRSS float64
}

// instance sets up a fresh session to run rounds on. On the TCP workload
// it has a new store directory, which closing the instance removes once
// the store is closed.
func (r *runner) instance(p *probe) (*instance, error) {
	r.ids++
	dir := filepath.Join(r.storeRoot, fmt.Sprint(r.ids))
	in, _, err := newInstance(r.w, r.ids, r.seed, p, dir)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", r.w.name, err)
	}
	if r.w.tcp {
		in.closers = append([]func(){func() { _ = os.RemoveAll(dir) }}, in.closers...)
	}
	return in, nil
}

// endToEnd is the untraced run: no wrapper, hook or span sink is
// attached.
func (r *runner) endToEnd(ctx context.Context) (map[string]metric, map[string]int, map[string][]float64, error) {
	s := &samples{}
	in, err := r.instance(nil)
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	r.setupStart, r.setupEvery = time.Now(), r.budget/time.Duration(r.w.setupReps)
	r.until = time.Now().Add(r.budget)
	// Each pass is one tta_s sample on a fresh session, so every sample
	// and every round times the same work whatever the machine's speed.
	// Another pass starts while at least half of one fits before the
	// deadline.
	for {
		start := time.Now()
		if r.w.train {
			err = r.trainRun(ctx, in, nil, s)
		} else {
			err = r.syntheticRun(ctx, in, nil, s, false)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		if time.Until(r.until) < time.Since(start)/2 {
			break
		}
		in.close()
		if in, err = r.instance(nil); err != nil {
			return nil, nil, nil, err
		}
	}

	rounds := float64(len(s.iters))
	params := float64(numTrainers*r.w.dim) * rounds
	values := map[string]float64{
		"setup_s":           median(s.setups),
		"iter_s_p50":        median(s.iters),
		"grad_params_per_s": params / sum(s.iters),
		"tta_s":             median(s.ttas),
		"cpu_s_per_iter":    median(s.cpus),
		"peak_rss_mb":       s.peakRSS,
		"round_ok_ratio":    float64(r.attempted-r.failed) / float64(r.attempted),
	}
	counts := map[string]int{
		"setup_s":           len(s.setups),
		"iter_s_p50":        len(s.iters),
		"grad_params_per_s": len(s.iters),
		"tta_s":             len(s.ttas),
		"cpu_s_per_iter":    len(s.cpus),
		"peak_rss_mb":       1,
		"round_ok_ratio":    r.attempted,
	}
	metrics := make(map[string]metric, len(endToEndMetrics))
	for _, m := range endToEndMetrics {
		metrics[m.name] = metric{values[m.name], m.unit}
	}
	raw := map[string][]float64{"setup_s": s.setups, "iter_s": s.iters, "cpu_s": s.cpus, "tta_s": s.ttas}
	return metrics, counts, raw, nil
}

// traced is the per-layer run. Half the budget runs untraced rounds on a
// bare session, for the tracing overhead; the other half runs the same
// workload on a session whose every interface is wrapped, with the crypto
// hooks installed and the session's spans collected. Spans are written
// when the run ends: the program's to spansFile, which iplstrace reads
// as any recorded run, and the benchmark's own "bench.*" spans, which
// share the rounds' trace IDs, to benchSpansFile.
func (r *runner) traced(ctx context.Context, spansFile, benchSpansFile string) (map[string]metric, map[string]int, error) {
	half := r.budget / 2
	bare := &samples{}
	in, err := r.instance(nil)
	if err != nil {
		return nil, nil, err
	}
	if r.w.train {
		err = r.trainRun(ctx, in, nil, bare)
	} else {
		r.until = time.Now().Add(half)
		err = r.syntheticRun(ctx, in, nil, bare, true)
	}
	in.close()
	if err != nil {
		return nil, nil, err
	}

	// One direct parameter derivation, as every party performs it.
	cfg, err := core.NewConfig(r.w.spec(0))
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	if _, err := cfg.PedersenParams(); err != nil {
		return nil, nil, err
	}
	paramsSetup := time.Since(start).Seconds()

	p := newProbe()
	in, err = r.instance(p)
	if err != nil {
		return nil, nil, err
	}
	defer in.close()
	in.sess.SetSpans(p.spans)
	in.net.SetSpans(p.spans)
	before := snapshotLayers(in)
	remove := p.installHooks()
	traced := &samples{}
	if r.w.train {
		err = r.trainRun(ctx, in, p, traced)
	} else {
		r.until = time.Now().Add(half)
		err = r.syntheticRun(ctx, in, p, traced, true)
	}
	remove()
	if err != nil {
		return nil, nil, err
	}
	after := snapshotLayers(in)
	metrics := p.layers(in, before, after, traced.rounds)
	metrics["pedersen.setup_s"] = metric{0, "s"}
	if r.w.verifiable {
		metrics["pedersen.setup_s"] = metric{paramsSetup, "s"}
	}
	metrics["obs.trace_overhead_s"] = metric{median(traced.iters) - median(bare.iters), "s"}

	program, bench := splitSpans(p.spans.Spans())
	if err := writeSpans(spansFile, program); err != nil {
		return nil, nil, err
	}
	if err := writeSpans(benchSpansFile, bench); err != nil {
		return nil, nil, err
	}
	counts := make(map[string]int, len(metrics))
	for name := range metrics {
		counts[name] = traced.rounds
	}
	counts["pedersen.setup_s"] = 1
	counts["obs.trace_overhead_s"] = len(traced.iters) + len(bare.iters)
	return metrics, counts, nil
}

func writeSpans(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := obs.NewSpanJSONLWriter(f)
	for _, s := range spans {
		w.EmitSpan(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// syntheticRun runs closed-loop synthetic rounds on a fresh session until
// the tta_s target is reached, and with extend on until the deadline has
// passed too. On the TCP workload it also checks the block store's
// footprint after cleanup.
func (r *runner) syntheticRun(ctx context.Context, in *instance, p *probe, s *samples, extend bool) error {
	var tta float64
	for round := 0; round < syntheticTargetRounds || extend && time.Now().Before(r.until); round++ {
		var end func()
		if p != nil {
			end = p.beginRound(in.cfg.TaskID, round)
		}
		dur, cpu, err := runSyntheticRound(ctx, in, r.seed, round)
		if end != nil {
			end()
		}
		r.attempted++
		if err == nil && in.w.tcp {
			err = checkFootprint(in, round)
		}
		if err != nil {
			r.failed++
			return fmt.Errorf("%s round %d: %w", in.w.name, round, err)
		}
		s.rounds++
		if round < syntheticTargetRounds {
			tta += dur.Seconds()
		}
		if round == syntheticTargetRounds-1 {
			s.ttas = append(s.ttas, tta)
			if s.peakRSS == 0 {
				s.peakRSS = peakRSSMB()
			}
		}
		if round > 0 {
			s.iters = append(s.iters, dur.Seconds())
			s.cpus = append(s.cpus, cpu.Seconds())
		}
		if err := r.sampleSetups(s); err != nil {
			return err
		}
	}
	return nil
}

// sampleSetups runs between rounds: it sets up, and closes at once, as
// many fresh sessions as the run's elapsed time owes at one per
// setupEvery, up to the workload's setupReps, recording each set-up time,
// and moves the deadline back by the time that took. Spreading the
// samples over the run makes their median average over the machine's
// drift during it.
func (r *runner) sampleSetups(s *samples) error {
	if r.setupEvery == 0 {
		return nil
	}
	start := time.Now()
	owed := int(start.Sub(r.setupStart)/r.setupEvery) + 1
	for len(s.setups) < owed && len(s.setups) < r.w.setupReps {
		r.ids++
		in, setup, err := newInstance(r.w, r.ids, r.seed, nil, filepath.Join(r.storeRoot, setupStore))
		if err != nil {
			return fmt.Errorf("set up %s: %w", r.w.name, err)
		}
		in.close()
		s.setups = append(s.setups, setup.Seconds())
	}
	r.until = r.until.Add(time.Since(start))
	return nil
}

// checkFootprint requires the block store, after round's cleanup, to hold
// no more than the global updates kept from every round so far: each
// aggregator's upload of its partition's global, on every replica.
func checkFootprint(in *instance, round int) error {
	var perRound int64
	for p := 0; p < in.cfg.Spec.Partitions; p++ {
		block := int64(4 + scalar.ElementSize*(in.cfg.Spec.PartitionLen(p)+1))
		perRound += block * int64(len(in.cfg.Aggregators[p])) * replicas
	}
	got, limit := in.net.TotalStoredBytes(), perRound*int64(round+1)
	if got > limit {
		return fmt.Errorf("%d bytes stored after cleanup, more than the %d bytes of kept global updates", got, limit)
	}
	return nil
}

// trainRun trains a fresh task on the instance until the test loss
// reaches the target, checking every round, and records the run's summed
// round time as one tta_s sample.
func (r *runner) trainRun(ctx context.Context, in *instance, p *probe, s *samples) error {
	if r.data == nil {
		data, err := newMLPData(r.seed)
		if err != nil {
			return err
		}
		r.data = data
	}
	task, err := in.newTask(r.data)
	if err != nil {
		return err
	}
	var tta float64
	var losses []float64
	for {
		round := task.Round()
		var end func()
		if p != nil {
			end = p.beginRound(in.cfg.TaskID, round)
		}
		dur, cpu, err := runMLPRound(ctx, in, task)
		if end != nil {
			end()
		}
		r.attempted++
		if err != nil {
			r.failed++
			return fmt.Errorf("train-mlp round %d: %w", round, err)
		}
		s.rounds++
		tta += dur.Seconds()
		if round > 0 {
			s.iters = append(s.iters, dur.Seconds())
			s.cpus = append(s.cpus, cpu.Seconds())
		}
		_, loss, err := task.Evaluate(r.data.test)
		if err != nil {
			return err
		}
		losses = append(losses, loss)
		if loss <= lossTarget {
			break
		}
		if round+1 >= maxTTARounds {
			r.failed++
			return fmt.Errorf("train-mlp: test loss %.4f after %d rounds, target %.2f", loss, round+1, lossTarget)
		}
		if err := r.sampleSetups(s); err != nil {
			return err
		}
	}
	if r.reference == nil {
		r.reference = losses
	} else if !sameFloats(losses, r.reference) {
		r.failed++
		return fmt.Errorf("train-mlp: loss trajectory %v differs from the run's reference %v", losses, r.reference)
	}
	s.ttas = append(s.ttas, tta)
	if s.peakRSS == 0 {
		s.peakRSS = peakRSSMB()
	}
	return nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
