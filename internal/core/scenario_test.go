package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ipls/internal/directory"
	"ipls/internal/ml"
	"ipls/internal/obs"
	"ipls/internal/scenario"
	"ipls/internal/storage"
)

// newScenarioTask builds an ML task over named ipfs storage nodes with
// replication, sized so churn leaves live capacity. The knobs select
// verifiable mode and merge-and-download providers, the combination the
// Byzantine path needs (detection lives in the BatchVerify fallback of
// the merged download).
func newScenarioTask(t *testing.T, verifiable bool, providers int) (*Task, *storage.Network, *directory.Service, *ml.Dataset) {
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
	ts := TaskSpec{
		TaskID:                  "scenario-task",
		ModelDim:                m.Dim(),
		Partitions:              2,
		Trainers:                names,
		AggregatorsPerPartition: 1,
		StorageNodes:            stores,
		ProvidersPerAggregator:  providers,
		Verifiable:              verifiable,
		TTrain:                  400 * time.Millisecond,
		TSync:                   5 * time.Second,
		PollInterval:            time.Millisecond,
	}
	cfg, err := NewConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	sess, net, dir, err := NewLocalStack(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	net.SetPlacement(storage.PlacementRendezvous)
	splits, err := data.SplitIID(trainers, 78)
	if err != nil {
		t.Fatal(err)
	}
	locals := make(map[string]*ml.Dataset, trainers)
	for i, name := range names {
		locals[name] = splits[i]
	}
	sgd := ml.SGDConfig{LearningRate: 0.3, Epochs: 2, BatchSize: 16}
	task, err := NewTask(sess, m, locals, sgd, m.Params())
	if err != nil {
		t.Fatal(err)
	}
	return task, net, dir, data
}

func mustPlan(t *testing.T, plan string) *scenario.Plan {
	t.Helper()
	p, err := scenario.Parse(plan)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newRunner parses plan and wires a ScenarioRunner over task and net.
func newRunner(t *testing.T, task *Task, net *storage.Network, plan string) *ScenarioRunner {
	t.Helper()
	runner, err := NewScenarioRunner(task, net, mustPlan(t, plan))
	if err != nil {
		t.Fatal(err)
	}
	return runner
}

// TestScenarioRunnerPartitionOpensAndHeals drives a plan whose partition
// window isolates a storage node for two rounds: rounds inside the
// window still complete (replication covers the isolated node's blocks),
// and when the window closes the network heals and re-replicates.
func TestScenarioRunnerPartitionOpensAndHeals(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, false, 0)
	reg := obs.NewRegistry()
	task.session.SetMetrics(reg)
	net.SetMetrics(reg)
	runner := newRunner(t, task, net, "partition:mainline|ipfs-01@iter1..2")
	runner.SetMetrics(reg)

	ctx := context.Background()
	for round := 0; round < 4; round++ {
		metrics, res, applied, err := runner.RunRound(ctx)
		if err != nil {
			t.Fatalf("round %d (%v): %v", round, applied, err)
		}
		if !metrics.Applied {
			t.Fatalf("round %d not applied (incomplete %v)", round, res.Incomplete)
		}
		switch round {
		case 0:
			if len(net.Partitioned()) != 0 {
				t.Fatal("partition in force before its window")
			}
		case 1, 2:
			if got := net.Partitioned(); len(got) != 1 || got[0] != "ipfs-01" {
				t.Fatalf("round %d: partitioned = %v, want [ipfs-01]", round, got)
			}
			if err := net.Health(); err == nil {
				t.Fatalf("round %d: network healthy while partitioned", round)
			}
		case 3:
			if got := net.Partitioned(); len(got) != 0 {
				t.Fatalf("round 3: partition not healed: %v", got)
			}
			if err := net.Health(); err != nil {
				t.Fatalf("round 3: network unhealthy after heal: %v", err)
			}
		}
	}
	if got := reg.Counter("partition_heals_total").Value(); got != 1 {
		t.Fatalf("partition_heals_total = %d, want 1", got)
	}
	if got := reg.Gauge("partition_active_nodes").Value(); got != 0 {
		t.Fatalf("partition_active_nodes = %v, want 0", got)
	}
	if got := len(net.UnderReplicated()); got != 0 {
		t.Fatalf("%d blocks under-replicated after heal", got)
	}
}

// TestScenarioRunnerFinishHealsOpenWindow covers a plan whose partition
// window outlives the run: Finish must close it.
func TestScenarioRunnerFinishHealsOpenWindow(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, false, 0)
	runner := newRunner(t, task, net, "partition:mainline|ipfs-02@iter1..9")
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		if _, _, applied, err := runner.RunRound(ctx); err != nil {
			t.Fatalf("round %d (%v): %v", round, applied, err)
		}
	}
	if len(net.Partitioned()) != 1 {
		t.Fatal("window not open at end of run")
	}
	if _, err := runner.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if got := net.Partitioned(); len(got) != 0 {
		t.Fatalf("Finish left partition %v", got)
	}
}

// TestQuorumRoundProceedsAndFoldsLateDelta is the examples/quorum story
// as a test: with quorum 0.8 over 8 trainers (need 7) and one late
// trainer, the round closes at 7-of-8 shortly after the quorum wait
// instead of blocking until t_train, and the straggler's delta folds
// into the next round age-discounted.
func TestQuorumRoundProceedsAndFoldsLateDelta(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, false, 0)
	reg := obs.NewRegistry()
	task.session.SetMetrics(reg)
	runner := newRunner(t, task, net, "late:t2@iter0")
	runner.SetQuorum(0.8, 50*time.Millisecond)

	ctx := context.Background()
	start := time.Now()
	metrics, res, _, err := runner.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !metrics.Applied || len(res.Incomplete) != 0 {
		t.Fatalf("quorum round did not complete: %+v incomplete %v", metrics, res.Incomplete)
	}
	if metrics.LateFolded != 0 {
		t.Fatalf("round 0 folded %d deltas, want 0 (stash is for the next round)", metrics.LateFolded)
	}
	// The round must have closed well before the 400ms t_train deadline
	// would have released the wait (two partitions would stack two waits).
	if elapsed > 350*time.Millisecond {
		t.Fatalf("quorum round took %v; the wait did not cut at quorum", elapsed)
	}
	if got := reg.Counter("quorum_proceed_total").Value(); got == 0 {
		t.Fatal("quorum_proceed_total = 0, want > 0")
	}

	metrics, _, _, err = runner.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.LateFolded != 1 {
		t.Fatalf("round 1 folded %d late deltas, want 1", metrics.LateFolded)
	}
}

// TestQuorumRejectedInVerifiableMode pins the incompatibility: the
// directory's closure gate counts every expected trainer, so m-of-n
// rounds cannot coexist with commitment verification.
func TestQuorumRejectedInVerifiableMode(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, true, 2)
	runner := newRunner(t, task, net, "")
	runner.SetQuorum(0.5, 10*time.Millisecond)
	if _, _, _, err := runner.RunRound(context.Background()); err == nil {
		t.Fatal("quorum in verifiable mode must be rejected")
	}
}

// TestCorruptUploadQuarantinedEndToEnd is the issue's Byzantine
// acceptance scenario: a trainer whose stored gradient bytes are
// tampered (commitment honest, data corrupt) is caught by the
// BatchVerify per-group fallback, its records are expunged from the
// directory (accumulators uncombined), and after the strike limit it is
// quarantined — while the honest trainers' rounds keep completing and
// the model converges.
func TestCorruptUploadQuarantinedEndToEnd(t *testing.T) {
	task, net, dir, data := newScenarioTask(t, true, 2)
	reg := obs.NewRegistry()
	task.session.SetMetrics(reg)
	runner := newRunner(t, task, net, "corrupt:t1@iter1..2")

	ctx := context.Background()
	for round := 0; round < 4; round++ {
		metrics, res, applied, err := runner.RunRound(ctx)
		if err != nil {
			t.Fatalf("round %d (%v): %v", round, applied, err)
		}
		if !metrics.Applied {
			t.Fatalf("round %d not applied (incomplete %v)", round, res.Incomplete)
		}
	}

	// Both partitions detected the tampered upload in round 1: two
	// strikes, so the quarantine starts at round 2 and the round-2
	// corruption never lands.
	if got := reg.Counter("byzantine_rejects_total").Value(); got != 2 {
		t.Fatalf("byzantine_rejects_total = %d, want 2", got)
	}
	if got := reg.Counter("byzantine_quarantines_total").Value(); got != 1 {
		t.Fatalf("byzantine_quarantines_total = %d, want 1", got)
	}
	q := dir.Quarantined()
	if from, bad := q["t1"]; !bad || from != 2 {
		t.Fatalf("quarantined = %v, want t1 from iter 2", q)
	}
	if got := dir.Stats().Expunged; got != 2 {
		t.Fatalf("expunged = %d, want 2", got)
	}

	acc, _, err := task.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("model did not converge despite quarantine: accuracy %v", acc)
	}
}

func TestScenarioRunnerRejectsUnknownParticipant(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, false, 0)
	for _, plan := range []string{
		"crash:nobody@iter0",
		"depart:t3@iter0", // depart targets a storage node
		"rejoin:t3@iter0", // the trainer never crashed
		"flaky:nobody@iter0:0.5",
	} {
		runner := newRunner(t, task, net, plan)
		if _, _, _, err := runner.RunRound(context.Background()); err == nil {
			t.Errorf("%s: round succeeded, want an error", plan)
		}
	}
}

// TestScenarioRunnerAppliesStorageMembership pins how membership events
// land on the storage network: depart loses the datastore and rejoin
// brings the node back empty, crash keeps it and rejoin recovers it
// intact, role events pass to the protocol layer, and without a network
// a storage name is an unknown participant.
func TestScenarioRunnerAppliesStorageMembership(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, false, 0)
	runner := newRunner(t, task, net,
		"depart:ipfs-03@iter0,crash:ipfs-02@iter0,crash:agg-p0-0@iter0,"+
			"rejoin:ipfs-02@iter1,rejoin:ipfs-03@iter1,rejoin:agg-p0-0@iter1")
	ctx := context.Background()
	for _, node := range []string{"ipfs-02", "ipfs-03"} {
		if _, err := net.Put(ctx, node, []byte("block on "+node)); err != nil {
			t.Fatal(err)
		}
	}
	stored := func(node string) int {
		t.Helper()
		nd, err := net.Node(node)
		if err != nil {
			t.Fatal(err)
		}
		return nd.StoredBlocks()
	}
	check := func(iter int, want ...string) {
		t.Helper()
		applied, err := runner.apply(ctx, iter)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if strings.Join(applied, "; ") != strings.Join(want, "; ") {
			t.Fatalf("iter %d applied %q, want %q", iter, applied, want)
		}
	}

	check(0, "depart ipfs-03 (blocks lost)", "crash ipfs-02", "crash agg-p0-0 (partition 0 aggregator)")
	if _, err := net.Put(ctx, "ipfs-02", []byte("x")); !errors.Is(err, storage.ErrNodeDown) {
		t.Fatalf("put on crashed ipfs-02: %v, want ErrNodeDown", err)
	}
	if _, err := net.Put(ctx, "ipfs-03", []byte("x")); !errors.Is(err, storage.ErrNodeDeparted) {
		t.Fatalf("put on departed ipfs-03: %v, want ErrNodeDeparted", err)
	}
	if got := stored("ipfs-03"); got != 0 {
		t.Fatalf("departed ipfs-03 still holds %d blocks", got)
	}
	if got := stored("ipfs-02"); got == 0 {
		t.Fatal("crashed ipfs-02 lost its datastore")
	}

	check(1, "rejoin ipfs-02 (datastore intact)", "rejoin ipfs-03 (empty datastore)",
		"rejoin agg-p0-0 (aggregator back in rotation)")
	if got := stored("ipfs-02"); got == 0 {
		t.Fatal("ipfs-02 recovered without its datastore")
	}
	if got := stored("ipfs-03"); got != 0 {
		t.Fatalf("ipfs-03 rejoined holding %d blocks, want an empty datastore", got)
	}
	for _, node := range []string{"ipfs-02", "ipfs-03"} {
		if _, err := net.Put(ctx, node, []byte("after rejoin")); err != nil {
			t.Fatalf("put on rejoined %s: %v", node, err)
		}
	}

	detached := newRunner(t, task, nil, "crash:ipfs-02@iter0")
	if _, err := detached.apply(ctx, 0); err == nil || !strings.Contains(err.Error(), "unknown participant") {
		t.Fatalf("storage event without a network: %v, want an unknown-participant error", err)
	}
}

// TestScenarioRunnerFaultWindowsOpenAndClose checks that slow and flaky
// windows degrade a storage node from their first iteration and are
// cleared at the iteration after their last — also when two windows on
// one node meet and the later one is listed first.
func TestScenarioRunnerFaultWindowsOpenAndClose(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, false, 0)
	runner := newRunner(t, task, net,
		"slow:ipfs-00@iter1..2:1h,flaky:ipfs-01@iter1:1,slow:ipfs-02@iter2:1h,slow:ipfs-02@iter1:1h")
	put := func(node string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, err := net.Put(ctx, node, []byte("probe"))
		return err
	}
	for iter, want := range []map[string]error{
		0: {"ipfs-00": nil, "ipfs-01": nil, "ipfs-02": nil},
		1: {"ipfs-00": context.DeadlineExceeded, "ipfs-01": storage.ErrNodeDown, "ipfs-02": context.DeadlineExceeded},
		2: {"ipfs-00": context.DeadlineExceeded, "ipfs-01": nil, "ipfs-02": context.DeadlineExceeded},
		3: {"ipfs-00": nil, "ipfs-01": nil, "ipfs-02": nil},
	} {
		applied, err := runner.apply(context.Background(), iter)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for node, wantErr := range want {
			if err := put(node); !errors.Is(err, wantErr) {
				t.Errorf("iter %d (%v): put on %s = %v, want %v", iter, applied, node, err, wantErr)
			}
		}
	}
}

// TestScenarioRunnerRejectsTimedWindows: timed windows only mean
// something on the simulator's virtual clock, so the round runner
// refuses them up front, naming the event.
func TestScenarioRunnerRejectsTimedWindows(t *testing.T) {
	task, net, _, _ := newScenarioTask(t, false, 0)
	for _, plan := range []string{"slow:ipfs-00@0s..5s:0.1", "partition:mainline|ipfs-01@1s..2s"} {
		if _, err := NewScenarioRunner(task, net, mustPlan(t, "crash:t1@iter0,"+plan)); err == nil || !strings.Contains(err.Error(), plan) {
			t.Errorf("%s: NewScenarioRunner error = %v, want one naming the event", plan, err)
		}
	}
}
