package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ipls/internal/dag"
	"ipls/internal/obs"
	"ipls/internal/scenario"
	"ipls/internal/storage"
)

// ScenarioRunner drives a Task across rounds under a composed
// scenario.Plan, enacting each round's events directly:
//
//   - depart/crash/rejoin naming a storage node hit the network (depart
//     → Depart, crash → Fail, rejoin → Recover, or Rejoin when the node
//     departed); the network stays the source of truth for "departed";
//   - a crashed aggregator becomes a dropout, and when every aggregator
//     of a partition is out, a live peer from another partition stands
//     by and takes the partition over (§III-D);
//   - a crashed trainer sits out its rounds; on rejoin it bootstraps
//     from the latest checkpoint DAG instead of iteration 0 (§VI);
//   - slow/flaky events degrade a storage node from their window's first
//     iteration and are cleared at the iteration after its last;
//   - partition windows isolate their non-mainline groups: storage
//     members are cut off via Network.Partition, trainers sit the window
//     out, aggregators behave as dropouts. When the window closes, the
//     network Heals (provider re-announce) and a RepairScan restores
//     replication both ways;
//   - corrupt events inject Byzantine uploads, late events inject
//     stragglers whose deltas fold into the next round;
//   - a quorum setting (SetQuorum) lets every round close at m-of-n;
//   - after every round the advanced global model is checkpointed to a
//     live storage node and a RepairScan restores the replication factor
//     eroded by departures.
type ScenarioRunner struct {
	task    *Task
	net     *storage.Network
	plan    *scenario.Plan
	events  []scenario.Event
	windows []scenario.PartitionWindow

	crashedAggs     map[string]bool
	crashedTrainers map[string]bool
	checkpoint      dag.Ref
	hasCheckpoint   bool

	// openIdx is the index of the partition window currently in force
	// (-1 when the network is whole); openStorage remembers whether it
	// isolated storage nodes, i.e. whether closing it must Heal.
	openIdx     int
	openStorage bool

	quorum     float64
	quorumWait time.Duration

	churnEvents *obs.Counter
	bootstraps  *obs.Counter
}

// NewScenarioRunner wires a runner over a task, its storage network and
// a parsed plan. net may be nil (direct backends); storage-node events
// then fail as unknown participants, and partitions can only name roles.
// Timed-window events (slow:NODE@D1..D2, partition:…@D1..D2) only have a
// meaning on the simulator's virtual clock and are rejected here.
func NewScenarioRunner(task *Task, net *storage.Network, plan *scenario.Plan) (*ScenarioRunner, error) {
	events := plan.Events()
	for _, ev := range events {
		if ev.Window.Timed {
			return nil, fmt.Errorf("core: scenario event %s: timed windows only run in the virtual-clock simulator", ev)
		}
	}
	return &ScenarioRunner{
		task:            task,
		net:             net,
		plan:            plan,
		events:          events,
		windows:         plan.PartitionWindows(),
		crashedAggs:     make(map[string]bool),
		crashedTrainers: make(map[string]bool),
		openIdx:         -1,
	}, nil
}

// SetQuorum lets every aggregator close its gradient wait at
// ceil(q·n)-of-n once wait has passed (0 disables; invalid in
// verifiable mode — RunRound will report the iteration's error).
func (sr *ScenarioRunner) SetQuorum(q float64, wait time.Duration) {
	sr.quorum, sr.quorumWait = q, wait
}

// SetMetrics points the runner's instrumentation at a registry (nil
// detaches).
func (sr *ScenarioRunner) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		sr.churnEvents, sr.bootstraps = nil, nil
		return
	}
	sr.churnEvents = reg.Counter("churn_events_total")
	sr.bootstraps = reg.Counter("trainer_bootstraps_total")
}

// Checkpoint returns the latest checkpoint reference and whether one has
// been taken.
func (sr *ScenarioRunner) Checkpoint() (dag.Ref, bool) { return sr.checkpoint, sr.hasCheckpoint }

// RunRound applies every event scheduled for the task's current round,
// runs the round with the induced role degradations, and checkpoints
// and repairs afterwards. The returned strings describe the events
// applied, in order.
func (sr *ScenarioRunner) RunRound(ctx context.Context) (RoundMetrics, *IterationResult, []string, error) {
	round := sr.task.Round()
	applied, err := sr.apply(ctx, round)
	if err != nil {
		return RoundMetrics{}, nil, applied, err
	}
	opts, err := sr.roundOptions(round)
	if err != nil {
		return RoundMetrics{}, nil, applied, err
	}
	metrics, res, err := sr.task.RunRound(ctx, opts)
	if err != nil {
		return metrics, res, applied, err
	}
	if sr.net != nil {
		if node := sr.liveStorageNode(); node != "" {
			ref, err := sr.task.Checkpoint(ctx, sr.net, node)
			if err != nil {
				return metrics, res, applied, fmt.Errorf("core: scenario checkpoint round %d: %w", round, err)
			}
			sr.checkpoint, sr.hasCheckpoint = ref, true
		}
		if _, err := sr.net.RepairScan(ctx); err != nil {
			return metrics, res, applied, fmt.Errorf("core: scenario repair round %d: %w", round, err)
		}
	}
	return metrics, res, applied, nil
}

// apply enacts the events scheduled for round: it closes an expired
// partition window first, then applies slow/flaky edges, then opens a
// partition window that starts now, then applies membership change.
func (sr *ScenarioRunner) apply(ctx context.Context, round int) ([]string, error) {
	var applied []string

	// Close a partition window that ended before this round: the
	// isolated side rejoins, re-announces its blocks, and a RepairScan
	// reconciles replication in both directions.
	if sr.openIdx >= 0 && round > sr.windows[sr.openIdx].ToIter {
		desc, err := sr.heal(ctx)
		if err != nil {
			return applied, err
		}
		applied = append(applied, desc)
	}

	desc, err := sr.applyFaults(round)
	applied = append(applied, desc...)
	if err != nil {
		return applied, err
	}

	// Open a partition window that starts at (or spans) this round.
	if sr.openIdx < 0 {
		for i, w := range sr.windows {
			if w.FromIter <= round && round <= w.ToIter {
				desc, err := sr.open(i)
				if err != nil {
					return applied, err
				}
				applied = append(applied, desc)
				break
			}
		}
	}

	for _, ev := range sr.events {
		switch ev.Kind {
		case scenario.Depart, scenario.Crash, scenario.Rejoin:
		default:
			continue
		}
		if ev.Window.FromIter != round {
			continue
		}
		desc, err := sr.applyMembership(ctx, round, ev)
		if err != nil {
			return applied, err
		}
		applied = append(applied, desc)
		sr.churnEvents.Inc()
	}
	return applied, nil
}

// Finish closes any partition window still open after the last round,
// so a scenario that ends mid-window leaves the network whole.
func (sr *ScenarioRunner) Finish(ctx context.Context) ([]string, error) {
	if sr.openIdx < 0 {
		return nil, nil
	}
	desc, err := sr.heal(ctx)
	if err != nil {
		return nil, err
	}
	return []string{desc}, nil
}

// applyFaults opens the slow/flaky windows starting at round and clears
// those that ended the round before. Clearing goes first, so
// back-to-back windows on one node hand over cleanly.
func (sr *ScenarioRunner) applyFaults(round int) ([]string, error) {
	var applied []string
	for _, opening := range []bool{false, true} {
		for _, ev := range sr.events {
			if ev.Kind != scenario.Slow && ev.Kind != scenario.Flaky {
				continue
			}
			if opening && ev.Window.FromIter != round || !opening && ev.Window.ToIter+1 != round {
				continue
			}
			if sr.net == nil {
				return applied, fmt.Errorf("core: scenario %s %q: unknown participant", ev.Kind, ev.Node)
			}
			var delay time.Duration
			var prob float64
			if opening {
				delay, prob = ev.Delay, ev.Prob
			}
			var err error
			if ev.Kind == scenario.Slow {
				err = sr.net.Slow(ev.Node, delay)
				applied = append(applied, fmt.Sprintf("slow %s by %s", ev.Node, delay))
			} else {
				err = sr.net.Flaky(ev.Node, prob)
				applied = append(applied, fmt.Sprintf("flaky %s p=%v", ev.Node, prob))
			}
			if err != nil {
				return applied, fmt.Errorf("core: scenario %s at iter %d: %w", ev, round, err)
			}
		}
	}
	return applied, nil
}

// applyMembership enacts one depart/crash/rejoin event: on the storage
// network when it names one of its nodes, as a role change otherwise.
func (sr *ScenarioRunner) applyMembership(ctx context.Context, round int, ev scenario.Event) (string, error) {
	if sr.storageNode(ev.Node) {
		var desc string
		var err error
		switch ev.Kind {
		case scenario.Depart:
			err = sr.net.Depart(ev.Node)
			desc = fmt.Sprintf("depart %s (blocks lost)", ev.Node)
		case scenario.Crash:
			err = sr.net.Fail(ev.Node)
			desc = fmt.Sprintf("crash %s", ev.Node)
		case scenario.Rejoin:
			err = sr.net.Recover(ev.Node)
			desc = fmt.Sprintf("rejoin %s (datastore intact)", ev.Node)
			if errors.Is(err, storage.ErrNodeDeparted) {
				err = sr.net.Rejoin(ev.Node)
				desc = fmt.Sprintf("rejoin %s (empty datastore)", ev.Node)
			}
		}
		if err != nil {
			return "", fmt.Errorf("core: scenario %s: %w", ev, err)
		}
		return desc, nil
	}
	cfg := sr.task.session.cfg
	switch ev.Kind {
	case scenario.Crash:
		if p, ok := aggregatorPartition(cfg, ev.Node); ok {
			sr.crashedAggs[ev.Node] = true
			return fmt.Sprintf("crash %s (partition %d aggregator)", ev.Node, p), nil
		}
		if isTrainer(cfg, ev.Node) {
			sr.crashedTrainers[ev.Node] = true
			return fmt.Sprintf("crash %s (trainer)", ev.Node), nil
		}
	case scenario.Rejoin:
		if sr.crashedAggs[ev.Node] {
			delete(sr.crashedAggs, ev.Node)
			return fmt.Sprintf("rejoin %s (aggregator back in rotation)", ev.Node), nil
		}
		if sr.crashedTrainers[ev.Node] {
			delete(sr.crashedTrainers, ev.Node)
			return sr.bootstrapTrainer(ctx, round, ev.Node)
		}
		if isTrainer(cfg, ev.Node) {
			return "", fmt.Errorf("core: scenario %s: trainer never crashed", ev)
		}
	case scenario.Depart:
		return "", fmt.Errorf("core: scenario %s: depart targets a storage node", ev)
	}
	return "", fmt.Errorf("core: scenario %s: unknown participant %q", ev, ev.Node)
}

// bootstrapTrainer brings a rejoining trainer up to date from the latest
// checkpoint DAG — the §VI joining-party path — instead of replaying
// from iteration 0. The loaded parameters are CID-verified per chunk by
// the DAG layer and must match the task's model dimension.
func (sr *ScenarioRunner) bootstrapTrainer(ctx context.Context, round int, trainer string) (string, error) {
	if sr.net == nil || !sr.hasCheckpoint {
		return fmt.Sprintf("rejoin %s (trainer, no checkpoint yet)", trainer), nil
	}
	node := sr.liveStorageNode()
	if node == "" {
		return "", fmt.Errorf("core: scenario rejoin %s: no live storage node to bootstrap from", trainer)
	}
	params, err := LoadCheckpoint(ctx, sr.net, node, sr.checkpoint)
	if err != nil {
		return "", fmt.Errorf("core: scenario rejoin %s: %w", trainer, err)
	}
	if dim := sr.task.session.cfg.Spec.Dim; len(params) != dim {
		return "", fmt.Errorf("core: scenario rejoin %s: checkpoint has %d params, model wants %d",
			trainer, len(params), dim)
	}
	sr.bootstraps.Inc()
	sr.task.session.emit(EventTrainerRejoin, trainer, round, -1,
		"bootstrapped %d params from checkpoint %s", len(params), sr.checkpoint.CID.Short())
	return fmt.Sprintf("rejoin %s (trainer, bootstrapped %d params from checkpoint %s)",
		trainer, len(params), sr.checkpoint.CID.Short()), nil
}

// roundOptions folds the round's role state into one RoundOptions:
// crashed and partition-isolated aggregators drop out (with standbys
// for partitions left without a live aggregator), crashed and
// partition-isolated trainers sit the round out, and the plan's
// corrupt/late events plus the quorum setting ride along.
func (sr *ScenarioRunner) roundOptions(round int) (*RoundOptions, error) {
	cfg := sr.task.session.cfg
	opts := &RoundOptions{
		Quorum:     sr.quorum,
		QuorumWait: sr.quorumWait,
		Corrupt:    sr.plan.CorruptAt(round),
		Late:       sr.plan.LateAt(round),
	}
	dropout := func(agg string) {
		if opts.Behaviors == nil {
			opts.Behaviors = make(map[string]Behavior)
		}
		opts.Behaviors[agg] = BehaviorDropout
	}
	absent := func(tr string) {
		if opts.Absent == nil {
			opts.Absent = make(map[string]bool)
		}
		opts.Absent[tr] = true
	}
	for agg := range sr.crashedAggs {
		dropout(agg)
	}
	for tr := range sr.crashedTrainers {
		absent(tr)
	}
	if sr.openIdx >= 0 {
		for _, id := range sr.windows[sr.openIdx].Isolated() {
			if isTrainer(cfg, id) {
				absent(id)
			} else if _, ok := aggregatorPartition(cfg, id); ok {
				dropout(id)
			}
		}
	}

	// A partition whose entire aggregator set is out gets a live
	// aggregator from another partition as standby. Partitions with at
	// least one live aggregator need none: the surviving peer's phase-4
	// takeover already covers the others.
	for p := 0; p < cfg.Spec.Partitions; p++ {
		allOut := true
		for _, agg := range cfg.Aggregators[p] {
			if opts.Behaviors[agg] != BehaviorDropout {
				allOut = false
				break
			}
		}
		if !allOut {
			continue
		}
		standby := ""
		for _, ref := range cfg.AllAggregators() {
			if ref.Partition != p && opts.Behaviors[ref.ID] != BehaviorDropout {
				standby = ref.ID
				break
			}
		}
		if standby == "" {
			return nil, fmt.Errorf("core: scenario: no live aggregator left to stand by for partition %d", p)
		}
		if opts.Standbys == nil {
			opts.Standbys = make(map[int]string)
		}
		opts.Standbys[p] = standby
	}
	return opts, nil
}

// open puts window i's partition in force: storage members are isolated
// on the network; role members degrade via roundOptions.
func (sr *ScenarioRunner) open(i int) (string, error) {
	w := sr.windows[i]
	var stores, roles []string
	for _, id := range w.Isolated() {
		if sr.storageNode(id) {
			stores = append(stores, id)
		} else {
			roles = append(roles, id)
		}
	}
	if len(stores) > 0 {
		if err := sr.net.Partition(stores); err != nil {
			return "", fmt.Errorf("core: scenario partition at iter %d: %w", w.FromIter, err)
		}
	}
	sr.openIdx = i
	sr.openStorage = len(stores) > 0
	return fmt.Sprintf("partition open (iter %d..%d): %d storage node(s), %d role(s) isolated",
		w.FromIter, w.ToIter, len(stores), len(roles)), nil
}

// heal closes the open partition window: Network.Heal re-announces the
// isolated side's blocks and a RepairScan re-replicates what either
// side lost during the split.
func (sr *ScenarioRunner) heal(ctx context.Context) (string, error) {
	w := sr.windows[sr.openIdx]
	sr.openIdx = -1
	if !sr.openStorage {
		return fmt.Sprintf("partition closed (iter %d..%d): roles back in rotation", w.FromIter, w.ToIter), nil
	}
	sr.openStorage = false
	if err := sr.net.Heal(); err != nil {
		return "", fmt.Errorf("core: scenario heal after iter %d: %w", w.ToIter, err)
	}
	report, err := sr.net.RepairScan(ctx)
	if err != nil {
		return "", fmt.Errorf("core: scenario repair after iter %d: %w", w.ToIter, err)
	}
	return fmt.Sprintf("partition healed (iter %d..%d): providers re-announced, %d block(s) re-replicated",
		w.FromIter, w.ToIter, report.Repaired), nil
}

// storageNode reports whether id is a node of the attached storage
// network (always false without one).
func (sr *ScenarioRunner) storageNode(id string) bool {
	if sr.net == nil {
		return false
	}
	_, err := sr.net.Node(id)
	return err == nil
}

// liveStorageNode returns a live storage node for checkpoints, or "".
func (sr *ScenarioRunner) liveStorageNode() string {
	if sr.net == nil {
		return ""
	}
	if live := sr.net.LiveNodes(); len(live) > 0 {
		return live[0]
	}
	return ""
}

// aggregatorPartition resolves an aggregator ID to its partition.
func aggregatorPartition(cfg *Config, id string) (int, bool) {
	for _, ref := range cfg.AllAggregators() {
		if ref.ID == id {
			return ref.Partition, true
		}
	}
	return 0, false
}

// isTrainer reports whether id is one of the task's trainers.
func isTrainer(cfg *Config, id string) bool {
	for _, tr := range cfg.Trainers {
		if tr == id {
			return true
		}
	}
	return false
}
