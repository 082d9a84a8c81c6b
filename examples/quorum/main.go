// Quorum demo: graceful degradation when a trainer straggles. A
// 4-trainer task runs with quorum 0.75, so each aggregator closes its
// gradient wait at 3-of-4 once the quorum wait passes instead of
// blocking until the full t_train deadline. The straggler's delta is
// not lost: it lands after the cut, is stashed, and folds into the next
// round's global model with an age-discounted weight.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ipls"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg, err := ipls.NewConfig(ipls.TaskSpec{
		TaskID:                  "quorum-demo",
		ModelDim:                36,
		Partitions:              2,
		Trainers:                []string{"alice", "bob", "carol", "dave"},
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"ipfs-0", "ipfs-1", "ipfs-2", "ipfs-3"},
		// t_train is the fault-free wait: a full second per partition.
		// The quorum cut below is what keeps straggler rounds fast.
		TTrain:       time.Second,
		TSync:        5 * time.Second,
		PollInterval: time.Millisecond,
	})
	if err != nil {
		return err
	}
	sess, net, _, err := ipls.NewLocalStack(cfg, 2)
	if err != nil {
		return err
	}

	// A real FL task: logistic regression on Gaussian blobs, split IID
	// across the four trainers.
	m := ipls.NewLogistic(8, 4)
	data := ipls.Blobs(240, 8, 4, 1.2, 7)
	splits, err := data.SplitIID(len(cfg.Trainers), 8)
	if err != nil {
		return err
	}
	locals := make(map[string]*ipls.Dataset)
	for i, tr := range cfg.Trainers {
		locals[tr] = splits[i]
	}
	task, err := ipls.NewTask(sess, m, locals,
		ipls.SGDConfig{LearningRate: 0.3, Epochs: 2, BatchSize: 16}, m.Params())
	if err != nil {
		return err
	}

	// The scenario: dave misses the upload window in round 0. With
	// quorum 0.75 the aggregators proceed at ceil(0.75·4) = 3 of 4 once
	// the 50ms quorum wait passes.
	plan, err := ipls.ParseScenario("late:dave@iter0")
	if err != nil {
		return err
	}
	runner, err := ipls.NewScenarioRunner(task, net, plan)
	if err != nil {
		return err
	}
	runner.SetQuorum(0.75, 50*time.Millisecond)

	ctx := context.Background()
	for round := 0; round < 3; round++ {
		start := time.Now()
		metrics, res, _, err := runner.RunRound(ctx)
		if err != nil {
			return err
		}
		line := fmt.Sprintf("round %d: loss %.4f, applied=%v in %v",
			round, metrics.Loss, metrics.Applied, time.Since(start).Round(time.Millisecond))
		if metrics.LateFolded > 0 {
			line += fmt.Sprintf("  (+%d late delta folded, age-discounted)", metrics.LateFolded)
		}
		if round == 0 {
			line += fmt.Sprintf("  [quorum round: %d of %d partitions closed at 3-of-4]",
				cfg.Spec.Partitions-len(res.Incomplete), cfg.Spec.Partitions)
		}
		fmt.Println(line)
	}

	acc, loss, err := task.Evaluate(data)
	if err != nil {
		return err
	}
	fmt.Printf("final model: accuracy %.3f, loss %.4f — dave's round-0 work was not discarded,\n", acc, loss)
	fmt.Println("it advanced the round-1 model at weight 0.5/n (one round late, lateDecay 0.5)")
	return nil
}
