package main

import (
	"sort"
	"strings"
	"time"

	"ipls/internal/obs"
)

// layerMetric names one per-layer metric the traced run reports.
type layerMetric struct {
	name, unit, better string
}

// multiexp strategies in group's naming.
var strategies = []string{"naive", "windowed", "pippenger", "parallel", "precomputed"}

// critPhases are the span names the session and storage emit on the
// workloads' fault-free rounds, plus the critical path's uncovered time;
// a phase outside this list is folded into core.crit.other_s.
var critPhases = []string{
	"iteration", "train", "upload", "store_put", "commit", "dir_publish",
	"collect", "update_wait", "download", "aggregate", "gradient_wait",
	"fetch_gradients", "merge_download", "merge", "partial_publish",
	"sync_wait", "verify", "global_publish", "untraced", "other",
}

// layerMetrics lists every per-layer metric in report order. Values are
// per round unless the unit says otherwise.
func layerMetrics() []layerMetric {
	var out []layerMetric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit, better})
		}
	}
	const (
		count = "count/round"
		secs  = "s/round"
		bytes = "bytes/round"
	)
	add(count, "lower", "pedersen.commit_calls", "pedersen.commit_elems")
	add(secs, "lower", "pedersen.commit_s")
	add(count, "lower", "pedersen.batch_verify_calls")
	add(secs, "lower", "pedersen.batch_verify_s")
	add("s", "lower", "pedersen.setup_s")
	for _, st := range strategies {
		add(count, "lower", "group.multiexp_elems."+st)
		add(secs, "lower", "group.multiexp_s."+st)
	}
	add(secs, "lower", "directory.publish_s")
	add(count, "lower", "directory.publish_update_calls")
	add(secs, "lower", "directory.publish_update_s")
	add(count, "lower", "directory.verify_partial_calls")
	add(secs, "lower", "directory.verify_partial_s")
	add(count, "lower", "directory.poll_calls")
	add(bytes, "lower", "directory.fetch_bytes")
	add(count, "lower", "directory.verifications")
	for _, op := range []string{"put", "get"} {
		add(count, "lower", "storage."+op+"_calls")
		add(bytes, "lower", "storage."+op+"_bytes")
		add(secs, "lower", "storage."+op+"_s")
	}
	add(count, "lower", "storage.merge_calls", "storage.merge_blocks")
	add(bytes, "lower", "storage.merge_bytes")
	add(secs, "lower", "storage.merge_s")
	add(bytes, "higher", "storage.merge_bytes_saved")
	add(count, "lower", "storage.listen_calls")
	add(secs, "lower", "storage.cleanup_s")
	add("ratio", "higher", "storage.cache_hit_ratio")
	add("bytes", "lower", "storage.stored_bytes")
	add(count, "lower", "transport.calls")
	for _, ph := range critPhases {
		add(secs, "lower", "core.crit."+ph+"_s")
	}
	add(secs, "lower", "core.wait_s", "ml.train_s", "model.encode_s", "model.decode_s")
	add(count, "lower", "resilience.retries", "resilience.failovers")
	add(bytes, "lower", "runtime.alloc_bytes")
	add(count, "lower", "runtime.gc_cycles")
	add("s", "lower", "obs.trace_overhead_s")
	return out
}

// layerSnapshot holds the cumulative counters the program keeps itself,
// read before and after the traced rounds.
type layerSnapshot struct {
	verifications     float64
	mergeSaved        float64
	cacheHits, misses float64
	retries, failover float64
	alloc, gc         float64
}

func snapshotLayers(in *instance) layerSnapshot {
	net := in.net.Metrics()
	var s layerSnapshot
	s.verifications = float64(in.dir.Stats().Verifications)
	s.mergeSaved = float64(net.Counter("merge_bytes_saved_total").Value())
	s.cacheHits = float64(net.Counter("storage_cache_hits_total").Value())
	s.misses = float64(net.Counter("storage_cache_misses_total").Value())
	for key, v := range in.polReg.Snapshot().Counters {
		switch {
		case strings.HasPrefix(key, "rpc_retries_total"):
			s.retries += float64(v)
		case strings.HasPrefix(key, "failovers_total"):
			s.failover += float64(v)
		}
	}
	s.alloc, s.gc = runtimeCounters()
	return s
}

// layers folds the probe's sums, the program's counters and the
// collected spans into the per-layer table, per round over the traced
// rounds. pedersen.setup_s and obs.trace_overhead_s are filled by the
// caller.
func (p *probe) layers(in *instance, before, after layerSnapshot, rounds int) map[string]metric {
	out := make(map[string]metric)
	per := func(v float64) float64 {
		if rounds == 0 {
			return 0
		}
		return v / float64(rounds)
	}
	derived := map[string]float64{
		"directory.verifications":   after.verifications - before.verifications,
		"storage.merge_bytes_saved": after.mergeSaved - before.mergeSaved,
		"resilience.retries":        after.retries - before.retries,
		"resilience.failovers":      after.failover - before.failover,
		"runtime.alloc_bytes":       after.alloc - before.alloc,
		"runtime.gc_cycles":         after.gc - before.gc,
	}
	for k, v := range spanMetrics(p.spans.Spans()) {
		derived[k] = v
	}
	for _, m := range layerMetrics() {
		v, ok := derived[m.name]
		if !ok {
			v = p.get(m.name)
		}
		out[m.name] = metric{per(v), m.unit}
	}
	hits, misses := after.cacheHits-before.cacheHits, after.misses-before.misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	out["storage.cache_hit_ratio"] = metric{ratio, "ratio"}
	out["storage.stored_bytes"] = metric{float64(in.net.TotalStoredBytes()), "bytes"}
	return out
}

// splitSpans separates the program's spans from the probe's own
// "bench.*" spans.
func splitSpans(all []obs.Span) (program, bench []obs.Span) {
	for _, s := range all {
		if strings.HasPrefix(s.Name, "bench.") {
			bench = append(bench, s)
		} else {
			program = append(program, s)
		}
	}
	return program, bench
}

// spanMetrics folds the program's spans into critical-path phase totals,
// summed wait time, the training span and the self time of the upload
// and collect spans.
func spanMetrics(all []obs.Span) map[string]float64 {
	spans, _ := splitSpans(all)
	out := make(map[string]float64)
	known := make(map[string]bool, len(critPhases))
	for _, ph := range critPhases {
		known[ph] = true
	}
	for _, b := range obs.BreakdownTrace(spans) {
		for _, ph := range b.Phases {
			name := ph.Phase
			if name == obs.GapPhase {
				name = "untraced"
			} else if !known[name] {
				name = "other"
			}
			out["core.crit."+name+"_s"] += ph.Duration.Seconds()
		}
	}
	children := make(map[string][]obs.Span)
	for _, s := range spans {
		if s.Context.Parent != "" {
			children[s.Context.Parent] = append(children[s.Context.Parent], s)
		}
	}
	for _, s := range spans {
		switch s.Name {
		case "gradient_wait", "sync_wait", "update_wait":
			out["core.wait_s"] += s.Duration().Seconds()
		case "train":
			out["ml.train_s"] += s.Duration().Seconds()
		case "upload":
			out["model.encode_s"] += selfTime(s, children[s.Context.SpanID]).Seconds()
		case "collect":
			out["model.decode_s"] += selfTime(s, children[s.Context.SpanID]).Seconds()
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s obs.Span, kids []obs.Span) time.Duration {
	covered := time.Duration(0)
	var cur struct{ start, end time.Time }
	// Children of one span are sequential or overlapping; merge their
	// intervals in start order.
	sorted := append([]obs.Span(nil), kids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	for i, k := range sorted {
		start, end := k.Start, k.End
		if start.Before(s.Start) {
			start = s.Start
		}
		if end.After(s.End) {
			end = s.End
		}
		if !end.After(start) {
			continue
		}
		if i == 0 || start.After(cur.end) {
			covered += cur.end.Sub(cur.start)
			cur.start, cur.end = start, end
		} else if end.After(cur.end) {
			cur.end = end
		}
	}
	covered += cur.end.Sub(cur.start)
	return s.Duration() - covered
}
