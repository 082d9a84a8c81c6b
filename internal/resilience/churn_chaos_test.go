package resilience_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"ipls/internal/core"
	"ipls/internal/directory"
	"ipls/internal/ml"
	"ipls/internal/obs"
	"ipls/internal/resilience"
	"ipls/internal/scalar"
	"ipls/internal/scenario"
	"ipls/internal/storage"
)

// newRejoinTask builds an ML training task whose session reaches storage
// and the directory through the resilience layer, over six replicated
// storage nodes with rendezvous placement — the topology the churn
// chaos scenario below crashes parts of.
func newRejoinTask(t *testing.T, reg *obs.Registry) (*core.Task, *storage.Network, *ml.Dataset) {
	t.Helper()
	const trainers = 8
	m := ml.NewLogistic(4, 4)
	data := ml.Blobs(480, 4, 4, 0.8, 77)
	names := make([]string, trainers)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	stores := make([]string, 6)
	for i := range stores {
		stores[i] = fmt.Sprintf("ipfs-%02d", i)
	}
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID:                  "churn-chaos",
		ModelDim:                m.Dim(),
		Partitions:              2,
		Trainers:                names,
		AggregatorsPerPartition: 1,
		StorageNodes:            stores,
		TTrain:                  400 * time.Millisecond,
		TSync:                   5 * time.Second,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	field := scalar.NewField(cfg.Curve.N)
	netw := storage.NewNetwork(field, 2)
	for _, id := range cfg.StorageNodes {
		netw.AddNode(id)
	}
	netw.SetPlacement(storage.PlacementRendezvous)
	params, err := cfg.PedersenParams()
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.New(params, netw)
	cfg.ApplyAssignments(dir)
	pol := &resilience.Policy{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Jitter:      0.2,
		RPCTimeout:  2 * time.Second,
		Seed:        11,
		Metrics:     reg,
	}
	client := resilience.Wrap(netw, field, pol)
	sess, err := core.NewSession(cfg, client.Storage(), resilience.WrapDirectory(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	splits, err := data.SplitIID(trainers, 78)
	if err != nil {
		t.Fatal(err)
	}
	locals := make(map[string]*ml.Dataset, trainers)
	for i, name := range names {
		locals[name] = splits[i]
	}
	sgd := ml.SGDConfig{LearningRate: 0.3, Epochs: 2, BatchSize: 16}
	task, err := core.NewTask(sess, m, locals, sgd, m.Params())
	if err != nil {
		t.Fatal(err)
	}
	return task, netw, data
}

func linfDiff(a, b []float64) float64 {
	var max float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// TestChaosTrainerRejoinRestoresFromCheckpoint is the rejoin-path chaos
// scenario: trainer t5 crashes in round 1 and rejoins in round 2,
// bootstrapping from the latest checkpoint DAG, while an independent
// transient storage fault (ipfs-04 down for rounds 1-2) is live across
// the same rounds. The session must complete every round, the rejoin
// must ride exactly one checkpoint bootstrap, replication must be whole
// after the final repair scan, and the final model must match a
// fault-free reference run within tolerance. The closing Restore proves
// the on-DAG checkpoint reproduces the trained model bit-for-bit.
func TestChaosTrainerRejoinRestoresFromCheckpoint(t *testing.T) {
	const rounds = 4
	ctx := context.Background()

	// Reference: the identical task with no churn and no faults. Trainer
	// SGD is seeded per (round, trainer), so the runs differ only by the
	// churn below.
	ref, _, data := newRejoinTask(t, nil)
	for round := 0; round < rounds; round++ {
		metrics, res, err := ref.RunRound(ctx, nil)
		if err != nil {
			t.Fatalf("reference round %d: %v", round, err)
		}
		if !metrics.Applied {
			t.Fatalf("reference round %d not applied (incomplete %v)", round, res.Incomplete)
		}
	}

	reg := obs.NewRegistry()
	task, netw, _ := newRejoinTask(t, reg)
	netw.SetMetrics(reg)
	plan, err := scenario.Parse("crash:ipfs-04@iter1,rejoin:ipfs-04@iter3,crash:t5@iter1,rejoin:t5@iter2")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := core.NewScenarioRunner(task, netw, plan)
	if err != nil {
		t.Fatal(err)
	}
	runner.SetMetrics(reg)
	for round := 0; round < rounds; round++ {
		metrics, res, applied, err := runner.RunRound(ctx)
		if err != nil {
			t.Fatalf("round %d (churn %v): %v", round, applied, err)
		}
		if !metrics.Applied {
			t.Fatalf("round %d not applied (churn %v, incomplete %v)", round, applied, res.Incomplete)
		}
	}
	if task.Round() != rounds {
		t.Fatalf("completed %d rounds, want %d", task.Round(), rounds)
	}
	if got := reg.Counter("trainer_bootstraps_total").Value(); got != 1 {
		t.Fatalf("trainer_bootstraps_total = %d, want 1 (the t5 rejoin)", got)
	}
	if got := len(netw.UnderReplicated()); got != 0 {
		t.Fatalf("%d blocks under-replicated after the final repair scan", got)
	}

	// One missed trainer-round must not knock the model off the
	// fault-free trajectory: the global averages re-absorb t5's share
	// once it is back.
	refAcc, _, err := ref.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	acc, _, err := task.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("churned run did not converge: accuracy %v", acc)
	}
	if d := math.Abs(acc - refAcc); d > 0.05 {
		t.Fatalf("accuracy drifted %v from the fault-free run (%v vs %v)", d, acc, refAcc)
	}
	if d := linfDiff(task.Global(), ref.Global()); d > 0.2 {
		t.Fatalf("final model drifted %v (L∞) from the fault-free run", d)
	}

	// The runner checkpoints after every round, so restoring the latest
	// checkpoint from the DAG must reproduce the final global exactly.
	ckpt, ok := runner.Checkpoint()
	if !ok {
		t.Fatal("runner took no checkpoint")
	}
	final := append([]float64(nil), task.Global()...)
	live := netw.LiveNodes()
	if len(live) == 0 {
		t.Fatal("no live storage node to restore from")
	}
	if err := task.Restore(ctx, netw, live[0], ckpt); err != nil {
		t.Fatalf("restore from checkpoint %s: %v", ckpt.CID.Short(), err)
	}
	if d := linfDiff(task.Global(), final); d != 0 {
		t.Fatalf("restored model differs from trained model by %v", d)
	}
}
