package core

import (
	"context"
	"testing"
	"time"

	"ipls/internal/obs"
)

func TestIterationWithAbsentTrainer(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.TTrain = 300 * time.Millisecond
		ts.TSync = 3 * time.Second
	})
	deltas, _ := randomDeltas(sess.Config().Trainers, 24, 1)
	absent := "t3"
	delete(deltas, absent)
	wantAvg := make([]float64, 24)
	for _, d := range deltas {
		for i := range d {
			wantAvg[i] += d[i] / float64(len(deltas))
		}
	}
	res, err := sess.RunIterationOpts(context.Background(), 0, deltas, nil, IterationOptions{AllowAbsent: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete partitions: %v", res.Incomplete)
	}
	if d := maxAbsDiff(res.AvgDelta, wantAvg); d > 1e-3 {
		t.Fatalf("average over present trainers off by %v", d)
	}
	// Without AllowAbsent the same call is rejected up front.
	if _, err := sess.RunIteration(context.Background(), 1, deltas, nil); err == nil {
		t.Fatal("missing delta must fail without AllowAbsent")
	}
}

func TestStandbyTakeoverCompletesPartition(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.Partitions = 2
		ts.TTrain = 300 * time.Millisecond
		ts.TSync = 4 * time.Second
	})
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	deltas, wantAvg := randomDeltas(sess.Config().Trainers, 24, 2)
	res, err := sess.RunIterationOpts(context.Background(), 0, deltas,
		map[string]Behavior{"agg-p0-0": BehaviorDropout},
		IterationOptions{Standbys: map[int]string{0: "agg-p1-0"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete partitions despite standby: %v", res.Incomplete)
	}
	if d := maxAbsDiff(res.AvgDelta, wantAvg); d > 1e-3 {
		t.Fatalf("average off by %v after takeover", d)
	}
	rep := res.Takeovers[0]
	if rep == nil {
		t.Fatal("no takeover report for partition 0")
	}
	if rep.ExecutedBy != "agg-p1-0" || rep.ID != "agg-p0-0" || !rep.PublishedGlobal {
		t.Fatalf("unexpected takeover report %+v", rep)
	}
	if got := reg.Counter("standby_takeover_total").Value(); got != 1 {
		t.Fatalf("standby_takeover_total = %d, want 1", got)
	}
}

func TestStandbyStaysQuietWhenPartitionHealthy(t *testing.T) {
	sess, _, _ := testStack(t, func(ts *TaskSpec) {
		ts.Partitions = 2
		ts.TTrain = 300 * time.Millisecond
		ts.TSync = 4 * time.Second
	})
	reg := obs.NewRegistry()
	sess.SetMetrics(reg)
	deltas, wantAvg := randomDeltas(sess.Config().Trainers, 24, 3)
	res, err := sess.RunIterationOpts(context.Background(), 0, deltas, nil,
		IterationOptions{Standbys: map[int]string{0: "agg-p1-0", 1: "agg-p0-0"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Takeovers) != 0 {
		t.Fatalf("healthy partitions produced takeovers: %+v", res.Takeovers)
	}
	if got := reg.Counter("standby_takeover_total").Value(); got != 0 {
		t.Fatalf("standby_takeover_total = %d, want 0", got)
	}
	if d := maxAbsDiff(res.AvgDelta, wantAvg); d > 1e-3 {
		t.Fatalf("average off by %v", d)
	}
}

// TestScenarioRunnerChurnEndToEnd is the membership-churn acceptance
// scenario: a storage-node departure, an aggregator crash and a trainer
// crash+rejoin across a multi-round run that still converges, with
// replication fully repaired and the failover/repair counters nonzero.
func TestScenarioRunnerChurnEndToEnd(t *testing.T) {
	task, net, _, data := newScenarioTask(t, false, 0)
	reg := obs.NewRegistry()
	task.session.SetMetrics(reg)
	net.SetMetrics(reg)
	runner := newRunner(t, task, net,
		"depart:ipfs-03@iter1,crash:agg-p0-0@iter1,crash:t5@iter1,rejoin:t5@iter2,rejoin:agg-p0-0@iter3")
	runner.SetMetrics(reg)

	accStart, _, err := task.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		metrics, res, applied, err := runner.RunRound(ctx)
		if err != nil {
			t.Fatalf("round %d (churn %v): %v", round, applied, err)
		}
		if !metrics.Applied {
			t.Fatalf("round %d not applied (churn %v, incomplete %v)", round, applied, res.Incomplete)
		}
		switch round {
		case 1:
			if len(applied) != 3 {
				t.Fatalf("round 1 churn = %v, want 3 events", applied)
			}
			rep := res.Takeovers[0]
			if rep == nil || rep.ExecutedBy != "agg-p1-0" {
				t.Fatalf("round 1: no standby takeover for partition 0: %+v", res.Takeovers)
			}
		case 2:
			if len(applied) != 1 {
				t.Fatalf("round 2 churn = %v, want the trainer rejoin", applied)
			}
		}
	}
	if task.Round() != 4 {
		t.Fatalf("completed %d rounds, want 4", task.Round())
	}

	accEnd, _, err := task.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	if accEnd < 0.85 || accEnd <= accStart {
		t.Fatalf("did not converge under churn: %v -> %v", accStart, accEnd)
	}
	if got := len(net.UnderReplicated()); got != 0 {
		t.Fatalf("%d blocks under-replicated after final repair", got)
	}
	if got := reg.Gauge("under_replicated_blocks").Value(); got != 0 {
		t.Fatalf("under_replicated_blocks = %v, want 0", got)
	}
	if got := reg.Counter("repair_blocks_total").Value(); got == 0 {
		t.Fatal("repair_blocks_total = 0, want > 0")
	}
	if got := reg.Counter("standby_takeover_total").Value(); got == 0 {
		t.Fatal("standby_takeover_total = 0, want > 0")
	}
	if got := reg.Counter("trainer_bootstraps_total").Value(); got != 1 {
		t.Fatalf("trainer_bootstraps_total = %d, want 1", got)
	}
	if got := reg.Counter("churn_events_total").Value(); got != 5 {
		t.Fatalf("churn_events_total = %d, want 5", got)
	}
	if _, ok := runner.Checkpoint(); !ok {
		t.Fatal("no checkpoint taken")
	}
}
