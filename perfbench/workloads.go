package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ipls/internal/core"
	"ipls/internal/directory"
	"ipls/internal/ml"
	"ipls/internal/obs"
	"ipls/internal/resilience"
	"ipls/internal/scalar"
	"ipls/internal/storage"
	"ipls/internal/transport"
)

// Task shape shared by every workload: 16 trainers, 4 partitions with 2
// aggregators each, 8 storage nodes, 2 merge providers per aggregator and
// replication 2.
const (
	numTrainers     = 16
	numPartitions   = 4
	aggsPerPart     = 2
	numStorageNodes = 8
	providersPerAgg = 2
	replicas        = 2

	// syntheticStd is the standard deviation of the synthetic N(0, 0.01)
	// gradient entries.
	syntheticStd = 0.1
	// syntheticTargetRounds is the synthetic workloads' tta_s target:
	// they have no loss, so the target is this many verified rounds of a
	// fresh session.
	syntheticTargetRounds = 4

	// tcpCacheBlocks is the per-node LRU capacity over the fs backend on
	// plain-256k-tcp: fewer blocks than one round stores per node, so
	// both cache hits and disk re-hash reads run.
	tcpCacheBlocks = 4

	// train-mlp's model, data and stopping rule.
	mlpHidden    = 32
	ringsSamples = 1600
	ringsClasses = 3
	ringsNoise   = 0.25
	testFrac     = 0.2
	lossTarget   = 0.65
	maxTTARounds = 80
	// mlpInitSeed fixes the model's initial weights. Across seeds 61–80
	// the initial weights alone moved the rounds to the loss target from
	// 24 to 31, the data and split alone from 24 to 27, so drawing the
	// weights from --seed would make tta_s time a different amount of
	// work on every seed.
	mlpInitSeed = 42
)

var mlpSGD = ml.SGDConfig{LearningRate: 0.2, Epochs: 2, BatchSize: 32}

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop driven by one caller goroutine: the next round starts when
// the previous one returns.
type workload struct {
	name string
	// curve is the commitment curve; plain workloads use the default
	// curve's field for quantization only.
	curve      string
	verifiable bool
	dim        int
	// tcp serves storage and directory over one loopback transport
	// server on the fs backend, and cleans up every round.
	tcp bool
	// train runs a core.Task to a loss target instead of synthetic
	// rounds.
	train bool
	// setupReps is how many set-up samples an untraced run takes: more
	// where a set-up takes milliseconds, fewer where it derives
	// parameters for a tenth of a second or more.
	setupReps int
}

var workloads = []*workload{
	{name: "verify-2k-p256", curve: "secp256r1-fast", verifiable: true, dim: 2048, setupReps: 25},
	{name: "verify-2k-k1", curve: "secp256k1", verifiable: true, dim: 2048, setupReps: 25},
	{name: "train-mlp", curve: "secp256k1", verifiable: true, dim: mlpDim(), train: true, setupReps: 50},
	{name: "plain-256k-tcp", dim: 262144, tcp: true, setupReps: 400},
}

func mlpDim() int { return ml.NewMLP(2, mlpHidden, ringsClasses, 0).Dim() }

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%02d", prefix, i)
	}
	return out
}

// spec is the workload's task declaration. id distinguishes sessions
// within one process so their traces never share a (task, iter) ID.
func (w *workload) spec(id int) core.TaskSpec {
	return core.TaskSpec{
		TaskID:                  fmt.Sprintf("perfbench/%s/%d", w.name, id),
		ModelDim:                w.dim,
		Partitions:              numPartitions,
		Trainers:                names("trainer", numTrainers),
		AggregatorsPerPartition: aggsPerPart,
		StorageNodes:            names("ipfs", numStorageNodes),
		ProvidersPerAggregator:  providersPerAgg,
		Verifiable:              w.verifiable,
		Curve:                   w.curve,
	}
}

// instance is one ready session of a workload, with the backends behind
// it.
type instance struct {
	w    *workload
	cfg  *core.Config
	sess *core.Session
	net  *storage.Network
	dir  *directory.Service
	// sessReg receives the session's own counters, which the correctness
	// checks read (batch_verify_fail_total); polReg receives the
	// resilience policy's retry and failover counters.
	sessReg *obs.Registry
	polReg  *obs.Registry
	// probe is the traced run's probe, nil otherwise.
	probe   *probe
	closers []func()
}

func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
	in.closers = nil
}

// newInstance builds a ready session for the workload and returns it with
// the set-up time, measured from NewConfig to the ready session. With a
// nil probe the stack is exactly what a user builds; with a probe every
// interface the session and directory are handed is wrapped, and the
// set-up time is not meaningful. storeDir is the fs block store's root on
// the TCP workload: a new directory, or one an earlier instance has
// closed, which is then reopened as a restarted server reopens its
// store. The caller removes it.
func newInstance(w *workload, id int, seed int64, p *probe, storeDir string) (*instance, time.Duration, error) {
	start := time.Now()
	cfg, err := core.NewConfig(w.spec(id))
	if err != nil {
		return nil, 0, err
	}
	in := &instance{w: w, cfg: cfg, sessReg: obs.NewRegistry(), polReg: obs.NewRegistry(), probe: p}
	switch {
	case w.tcp:
		err = in.buildTCP(p, storeDir)
	case p == nil && !w.train:
		in.sess, in.net, in.dir, err = core.NewLocalStack(cfg, replicas)
	default:
		err = in.buildLocal(p, seed)
	}
	setup := time.Since(start)
	if err != nil {
		in.close()
		return nil, 0, err
	}
	in.sess.SetMetrics(in.sessReg)
	return in, setup, nil
}

// buildLocal wires the in-memory stack. Unwrapped, it is what iplssim
// builds: core.NewLocalStack under resilience.Wrap / WrapDirectory. With a
// probe it is the same wiring spelled out, so the directory's block
// fetcher can be wrapped too, with the probe's wrappers outermost.
func (in *instance) buildLocal(p *probe, seed int64) error {
	cfg := in.cfg
	field := scalar.NewField(cfg.Curve.N)
	if p == nil {
		var err error
		if _, in.net, in.dir, err = core.NewLocalStack(cfg, replicas); err != nil {
			return err
		}
	} else {
		in.net = storage.NewNetwork(field, replicas)
		for _, id := range cfg.StorageNodes {
			in.net.AddNode(id)
		}
		params, err := cfg.PedersenParams()
		if err != nil {
			return err
		}
		in.dir = directory.New(params, p.fetcher(in.net))
		cfg.ApplyAssignments(in.dir)
	}
	var st storage.Client = in.net
	var dir resilience.DirectoryService = in.dir
	if in.w.train {
		pol := resilience.DefaultPolicy()
		pol.BaseBackoff = 2 * time.Millisecond
		pol.MaxBackoff = 20 * time.Millisecond
		pol.Seed = seed
		pol.Metrics = in.polReg
		st = resilience.Wrap(in.net, field, pol).Storage()
		dir = resilience.WrapDirectory(in.dir, pol)
	}
	if p != nil {
		st, dir = p.wrapStore(st.(blockClient)), p.wrapDir(dir)
	}
	sess, err := core.NewSession(cfg, st, dir)
	in.sess = sess
	return err
}

// buildTCP wires what `iplsd serve -store-dir` serves: a storage network
// on the fs backend (replication 2, small LRU cache) and a directory
// service behind one loopback transport server, with every role sharing
// one client connection.
func (in *instance) buildTCP(p *probe, storeDir string) error {
	cfg := in.cfg
	field := scalar.NewField(cfg.Curve.N)
	in.net = storage.NewNetworkWithStore(field, replicas, storage.StoreConfig{
		Backend: storage.BackendFS, Dir: storeDir, CacheBlocks: tcpCacheBlocks,
	})
	in.closers = append(in.closers, func() { _ = in.net.Close() })
	for _, id := range cfg.StorageNodes {
		in.net.AddNode(id)
	}
	if err := in.net.Health(); err != nil {
		return err
	}
	params, err := cfg.PedersenParams()
	if err != nil {
		return err
	}
	var fetcher directory.BlockFetcher = in.net
	if p != nil {
		fetcher = p.fetcher(in.net)
	}
	in.dir = directory.New(params, fetcher)
	cfg.ApplyAssignments(in.dir)
	srv := transport.NewServer()
	if err := srv.RegisterStorage(in.net); err != nil {
		return err
	}
	if err := srv.RegisterDirectory(in.dir); err != nil {
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	in.closers = append(in.closers, func() { _ = srv.Close() })
	client, err := transport.Dial(addr)
	if err != nil {
		return err
	}
	in.closers = append(in.closers, func() { _ = client.Close() })
	var st storage.Client = client
	var dir core.Directory = client
	if p != nil {
		p.tcp = true
		st, dir = p.wrapStore(client), p.wrapDir(client)
	}
	in.sess, err = core.NewSession(cfg, st, dir)
	return err
}

// syntheticDeltas draws every trainer's N(0, 0.01) delta for a round from
// the seed.
func syntheticDeltas(cfg *core.Config, seed int64, round int) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	deltas := make(map[string][]float64, len(cfg.Trainers))
	for _, tr := range cfg.Trainers {
		d := make([]float64, cfg.Spec.Dim)
		for i := range d {
			d[i] = rng.NormFloat64() * syntheticStd
		}
		deltas[tr] = d
	}
	return deltas
}

// meanOf is the float mean of the trainers' deltas, which the round's
// AvgDelta must match within the quantization bound.
func meanOf(cfg *core.Config, deltas map[string][]float64) []float64 {
	mean := make([]float64, cfg.Spec.Dim)
	for _, tr := range cfg.Trainers {
		for i, v := range deltas[tr] {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(cfg.Trainers))
	}
	return mean
}

// checkRound applies the per-round correctness checks shared by every
// workload: no error, every partition complete, nothing detected, no
// failed batch verification, and an AvgDelta equal to the float mean of
// the inputs within the quantization bound.
func (in *instance) checkRound(res *core.IterationResult, want []float64) error {
	if res == nil {
		return fmt.Errorf("no iteration result")
	}
	if len(res.Incomplete) > 0 {
		return fmt.Errorf("incomplete partitions %v", res.Incomplete)
	}
	if res.Detected() {
		return fmt.Errorf("malicious aggregation detected in an honest round")
	}
	if n := in.sessReg.Counter("batch_verify_fail_total").Value(); n != 0 {
		return fmt.Errorf("%d failed batch verifications", n)
	}
	if n := in.dir.Stats().Rejections; n != 0 {
		return fmt.Errorf("directory rejected %d publishes", n)
	}
	if len(res.AvgDelta) != len(want) {
		return fmt.Errorf("AvgDelta has %d entries, want %d", len(res.AvgDelta), len(want))
	}
	tol := math.Ldexp(1, -int(in.cfg.QuantShift))
	for i, v := range res.AvgDelta {
		if d := math.Abs(v - want[i]); d > tol+1e-12*math.Abs(want[i]) || math.IsNaN(v) {
			return fmt.Errorf("AvgDelta[%d] = %v, float mean %v (|diff| %.3g > %.3g)", i, v, want[i], d, tol)
		}
	}
	return nil
}

// mlpData is train-mlp's data, generated once per process from the seed.
type mlpData struct {
	locals map[string]*ml.Dataset
	test   *ml.Dataset
}

func newMLPData(seed int64) (*mlpData, error) {
	all := ml.Rings(ringsSamples, ringsClasses, ringsNoise, seed)
	train, test, err := ml.TrainTestSplit(all, testFrac, seed+1)
	if err != nil {
		return nil, err
	}
	splits, err := train.SplitLabelSkew(numTrainers, 2, seed+2)
	if err != nil {
		return nil, err
	}
	locals := make(map[string]*ml.Dataset, numTrainers)
	for i, name := range names("trainer", numTrainers) {
		locals[name] = splits[i]
	}
	return &mlpData{locals: locals, test: test}, nil
}

// newTask starts a fresh training run on the instance from the fixed
// initial weights.
func (in *instance) newTask(data *mlpData) (*core.Task, error) {
	m := ml.NewMLP(2, mlpHidden, ringsClasses, mlpInitSeed)
	return core.NewTask(in.sess, m, data.locals, mlpSGD, m.Params())
}

// runMLPRound runs one timed training round and checks it. The expected
// mean is computed from the task's own deterministic local deltas before
// the timer starts.
func runMLPRound(ctx context.Context, in *instance, task *core.Task) (time.Duration, time.Duration, error) {
	deltas, _, err := task.LocalDeltas(task.Round())
	if err != nil {
		return 0, 0, err
	}
	want := meanOf(in.cfg, deltas)
	cpu0 := cpuTime()
	start := time.Now()
	m, res, err := task.RunRound(ctx, nil)
	dur, cpu := time.Since(start), cpuTime()-cpu0
	if err != nil {
		return dur, cpu, err
	}
	if !m.Applied {
		return dur, cpu, fmt.Errorf("round %d not applied", m.Round)
	}
	return dur, cpu, in.checkRound(res, want)
}

// runSyntheticRound runs one timed synthetic round (plus cleanup on the
// TCP workload) and checks it.
func runSyntheticRound(ctx context.Context, in *instance, seed int64, round int) (time.Duration, time.Duration, error) {
	deltas := syntheticDeltas(in.cfg, seed, round)
	want := meanOf(in.cfg, deltas)
	cpu0 := cpuTime()
	start := time.Now()
	res, err := in.sess.RunIteration(ctx, round, deltas, nil)
	if err == nil && in.w.tcp {
		cleanup := time.Now()
		_, err = in.sess.CleanupIteration(ctx, round)
		if in.probe != nil {
			in.probe.add("storage.cleanup_s", time.Since(cleanup).Seconds())
		}
	}
	dur, cpu := time.Since(start), cpuTime()-cpu0
	if err != nil {
		return dur, cpu, err
	}
	return dur, cpu, in.checkRound(res, want)
}
