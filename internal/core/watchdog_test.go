package core

import (
	"testing"
	"time"

	"ipls/internal/obs"
)

// simBase anchors the simulator's virtual clock (see Simulate).
var simBase = time.Unix(0, 0).UTC()

func TestWatchdogHeartbeatsAndStuckDetection(t *testing.T) {
	mon := obs.NewMonitor(obs.MonitorConfig{Window: 30 * time.Second})
	wd := NewWatchdog(mon, WatchdogConfig{StuckAfter: time.Second})

	span := func(name, actor string, start, end time.Duration) obs.Span {
		return obs.Span{
			Name: name, Actor: actor,
			Context: obs.SpanContext{Session: "t", SpanID: obs.NewSpanID()},
			Start:   simBase.Add(start), End: simBase.Add(end),
		}
	}
	wd.EmitSpan(span("upload", "trainer-00", 0, 100*time.Millisecond))
	wd.EmitSpan(span("upload", "trainer-01", 0, 200*time.Millisecond))
	wd.Evaluate(simBase.Add(300 * time.Millisecond))
	if err := wd.Check(simBase.Add(300 * time.Millisecond)); err != nil {
		t.Fatalf("healthy cadence flagged: %v", err)
	}
	if firing := mon.Firing(); len(firing) != 0 {
		t.Fatalf("firing = %v on healthy cadence", firing)
	}

	// Silence past the deadline: Check fails and the stuck_round rule
	// fires on the next evaluation.
	late := simBase.Add(5 * time.Second)
	if err := wd.Check(late); err == nil {
		t.Fatal("stalled session passed Check")
	}
	wd.Evaluate(late)
	if firing := mon.Firing(); len(firing) != 1 || firing[0] != StuckRoundAlert {
		t.Fatalf("firing = %v, want [%s]", firing, StuckRoundAlert)
	}
	if wd.MaxGap() < 4*time.Second {
		t.Fatalf("max gap = %v", wd.MaxGap())
	}

	// A late heartbeat (e.g. a takeover span) resumes the cadence. The
	// takeover span itself records the 5.8s gap, so the alarm holds...
	wd.EmitSpan(span("takeover", "agg-p0-1", 5*time.Second, 6*time.Second))
	wd.Evaluate(simBase.Add(6 * time.Second))
	if firing := mon.Firing(); len(firing) != 1 {
		t.Fatalf("firing = %v right after recovery, want stuck_round held", firing)
	}
	// ...until a sustained healthy cadence slides the window past every
	// over-deadline gap observation.
	var recovered time.Time
	for at := 6500 * time.Millisecond; at <= 40*time.Second; at += 500 * time.Millisecond {
		wd.EmitSpan(span("upload", "trainer-00", at-100*time.Millisecond, at))
		recovered = simBase.Add(at)
	}
	wd.Evaluate(recovered)
	if firing := mon.Firing(); len(firing) != 0 {
		t.Fatalf("firing = %v after recovery, want none", firing)
	}
	if err := wd.Check(recovered); err != nil {
		t.Fatalf("recovered session flagged: %v", err)
	}
}

func TestWatchdogStragglerDetection(t *testing.T) {
	mon := obs.NewMonitor(obs.MonitorConfig{Window: 30 * time.Second})
	wd := NewWatchdog(mon, WatchdogConfig{StragglerFactor: 3, MinSamples: 5})
	end := 500 * time.Millisecond
	for i, d := range []time.Duration{
		100 * time.Millisecond, 110 * time.Millisecond, 90 * time.Millisecond,
		120 * time.Millisecond, 100 * time.Millisecond, 95 * time.Millisecond,
		105 * time.Millisecond, 100 * time.Millisecond, 110 * time.Millisecond,
		100 * time.Millisecond, 95 * time.Millisecond, 10 * time.Second, // trainer-11 straggles
	} {
		actor := string(rune('a' + i))
		if i == 11 {
			actor = "trainer-11"
		}
		wd.EmitSpan(obs.Span{
			Name: "upload", Actor: actor,
			Context: obs.SpanContext{Session: "t", SpanID: obs.NewSpanID()},
			Start:   simBase, End: simBase.Add(end + d),
		})
	}
	at := simBase.Add(11 * time.Second)
	got := wd.Stragglers(at)
	if len(got) != 1 || got[0].Actor != "trainer-11" || got[0].Phase != "upload" {
		t.Fatalf("stragglers = %+v, want trainer-11/upload", got)
	}
	if got[0].Ratio < 3 {
		t.Fatalf("ratio = %v, want > straggler factor", got[0].Ratio)
	}
	st := wd.Status(at)
	if len(st.Stragglers) != 1 {
		t.Fatalf("status stragglers = %+v", st.Stragglers)
	}
}

// TestSimulateStragglerFiresAlerts is the acceptance scenario: a
// deterministic netsim run with one trainer's links degraded by a
// LossWindow must fire the phase_latency alert, trip the stuck-round
// watchdog under virtual time, and flag the trainer as a straggler —
// all without wall-clock dependence.
func TestSimulateStragglerFiresAlerts(t *testing.T) {
	// A window wider than the whole run keeps every observation in scope
	// at the end-of-run evaluation, so the final alert state is a stable
	// assertion target rather than a race against window sliding.
	mon := obs.NewMonitor(obs.MonitorConfig{Window: 10 * time.Minute})
	if err := mon.AddRule(obs.AlertRule{
		Name:   "upload_latency",
		Metric: obs.MetricPhaseLatency,
		Phase:  "upload",
		Stat:   "max",
		// The healthy fleet uploads in well under a second; the
		// straggler takes tens of seconds.
		Threshold: 1.0,
	}); err != nil {
		t.Fatal(err)
	}
	wd := NewWatchdog(mon, WatchdogConfig{StuckAfter: 2 * time.Second, MinSamples: 5})

	collector := obs.NewSpanCollector(4096)
	res, err := Simulate(SimConfig{
		Trainers:                12,
		Partitions:              1,
		AggregatorsPerPartition: 1,
		StorageNodes:            4,
		PartitionBytes:          1 << 20,
		BandwidthMbps:           100,
		// trainer-00's links run at 1% capacity for the first minute:
		// its 1 MiB upload takes ~100× longer than the fleet's.
		Scenario: mustPlan(t, "slow:trainer-00@0s..1m:0.01"),
		Spans:    collector,
		Watchdog: wd,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UploadDelayMax < 5*time.Second {
		t.Fatalf("straggler not slow: max upload delay %v", res.UploadDelayMax)
	}

	end := simBase.Add(res.TotalDelay)
	firing := map[string]bool{}
	for _, name := range mon.Firing() {
		firing[name] = true
	}
	if !firing["upload_latency"] {
		t.Fatalf("phase_latency alert not firing: %v", mon.Alerts())
	}
	if !firing[StuckRoundAlert] {
		t.Fatalf("stuck-round alarm not firing: %v", mon.Alerts())
	}
	if wd.MaxGap() <= 2*time.Second {
		t.Fatalf("max heartbeat gap = %v, want past the deadline", wd.MaxGap())
	}
	stragglers := wd.Stragglers(end)
	found := false
	for _, s := range stragglers {
		if s.Actor == "trainer-00" && s.Phase == "upload" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trainer-00 not flagged: %+v", stragglers)
	}
	// The Watchdog shares the span fan-out rather than replacing it.
	if len(collector.Spans()) == 0 {
		t.Fatal("span collector starved by the watchdog")
	}

	// Determinism: the same config reproduces the same alert values.
	mon2 := obs.NewMonitor(obs.MonitorConfig{Window: 10 * time.Minute})
	if err := mon2.AddRule(obs.AlertRule{
		Name: "upload_latency", Metric: obs.MetricPhaseLatency,
		Phase: "upload", Stat: "max", Threshold: 1.0,
	}); err != nil {
		t.Fatal(err)
	}
	wd2 := NewWatchdog(mon2, WatchdogConfig{StuckAfter: 2 * time.Second, MinSamples: 5})
	if _, err := Simulate(SimConfig{
		Trainers: 12, Partitions: 1, AggregatorsPerPartition: 1,
		StorageNodes: 4, PartitionBytes: 1 << 20, BandwidthMbps: 100,
		Scenario: mustPlan(t, "slow:trainer-00@0s..1m:0.01"),
		Watchdog: wd2,
	}); err != nil {
		t.Fatal(err)
	}
	a1, a2 := mon.Alerts(), mon2.Alerts()
	if len(a1) != len(a2) {
		t.Fatalf("alert counts differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].Rule.Name != a2[i].Rule.Name || a1[i].State != a2[i].State ||
			a1[i].Value != a2[i].Value || !a1[i].Since.Equal(a2[i].Since) {
			t.Fatalf("alert %d not deterministic:\n%+v\n%+v", i, a1[i], a2[i])
		}
	}
}
