package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipls/internal/cid"
	"ipls/internal/core"
	"ipls/internal/directory"
	"ipls/internal/group"
	"ipls/internal/obs"
	"ipls/internal/pedersen"
	"ipls/internal/resilience"
	"ipls/internal/storage"
)

// The probe measures each layer from outside the program: it wraps the
// interfaces core.NewSession and directory.New accept, installs the
// group/pedersen accounting hooks, and records a span around every
// wrapped call under the current round's benchmark span. It is only
// attached in the traced run; end-to-end metrics run without it.
type probe struct {
	mu   sync.Mutex
	sums map[string]float64
	// spans holds the program's own spans and the probe's, in memory
	// until the run ends.
	spans *obs.SpanCollector
	// round is the context of the open "bench.round" span; wrapped calls
	// parent their spans under it.
	round atomic.Pointer[obs.SpanContext]
	// tcp marks that the wrapped client is a transport connection, so
	// every wrapped call is one RPC.
	tcp bool
}

func newProbe() *probe {
	return &probe{sums: make(map[string]float64), spans: &obs.SpanCollector{}}
}

func (p *probe) add(name string, v float64) {
	p.mu.Lock()
	p.sums[name] += v
	p.mu.Unlock()
}

func (p *probe) get(name string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sums[name]
}

// call records one completed call into a layer: its count, summed wall
// time and bytes under "<layer>.<op>_*", and a span under the open round.
func (p *probe) call(layer, op string, start time.Time, bytes int) {
	end := time.Now()
	prefix := layer + "." + op
	p.mu.Lock()
	p.sums[prefix+"_calls"]++
	p.sums[prefix+"_s"] += end.Sub(start).Seconds()
	p.sums[prefix+"_bytes"] += float64(bytes)
	p.mu.Unlock()
	if parent := p.round.Load(); parent != nil {
		p.spans.EmitSpan(obs.Span{
			Name: "bench." + prefix, Actor: "perfbench", Context: parent.Child(),
			Start: start, End: end, Bytes: int64(bytes),
		})
	}
}

// rpc counts one call the session makes through a wrapped client; on the
// TCP workload each is one round trip.
func (p *probe) rpc() {
	if p.tcp {
		p.add("transport.calls", 1)
	}
}

// beginRound opens the round's benchmark span; the returned func closes
// it. Its trace ID is the one the session stamps on the round's spans.
func (p *probe) beginRound(taskID string, iter int) func() {
	ctx := obs.SpanContext{Session: taskID, Iter: iter, SpanID: obs.NewSpanID()}
	p.round.Store(&ctx)
	start := time.Now()
	return func() {
		p.round.Store(nil)
		p.spans.EmitSpan(obs.Span{Name: "bench.round", Actor: "perfbench", Context: ctx, Start: start, End: time.Now()})
	}
}

// installHooks routes the crypto accounting hooks into the probe until
// the returned func removes them.
func (p *probe) installHooks() func() {
	group.SetAccount(func(op string, n int) func() {
		start := time.Now()
		strategy := strings.TrimPrefix(op, "multiexp_")
		return func() {
			d := time.Since(start).Seconds()
			p.mu.Lock()
			p.sums["group.multiexp_elems."+strategy] += float64(n)
			p.sums["group.multiexp_s."+strategy] += d
			p.mu.Unlock()
		}
	})
	pedersen.SetAccount(func(op string, n int) func() {
		start := time.Now()
		return func() {
			d := time.Since(start).Seconds()
			p.mu.Lock()
			switch op {
			case "pedersen_commit":
				p.sums["pedersen.commit_calls"]++
				p.sums["pedersen.commit_elems"] += float64(n)
				p.sums["pedersen.commit_s"] += d
			case "pedersen_batch_verify":
				p.sums["pedersen.batch_verify_calls"]++
				p.sums["pedersen.batch_verify_s"] += d
			default:
				p.sums["pedersen."+op+"_s"] += d
			}
			p.mu.Unlock()
		}
	})
	return func() {
		group.SetAccount(nil)
		pedersen.SetAccount(nil)
	}
}

// blockClient is the storage surface the session discovers on the
// clients this benchmark wraps (storage.Network, transport.Client and the
// resilience view all have it): the positional API plus content routing,
// span-carrying merges and cleanup deletion.
type blockClient interface {
	storage.Client
	Fetch(ctx context.Context, c cid.CID) ([]byte, error)
	MergeGetSpan(ctx context.Context, nodeID string, cs []cid.CID, parent obs.SpanContext) ([]byte, error)
	DeleteAll(c cid.CID)
}

// wrapStore wraps a storage client. Pub/sub is exposed only when the
// inner client has it, so the session's capability checks see the same
// surface with and without the probe.
func (p *probe) wrapStore(inner blockClient) storage.Client {
	s := &storeProbe{inner: inner, p: p}
	if ann, ok := inner.(core.Announcer); ok {
		return &pubsubProbe{storeProbe: s, ann: ann}
	}
	return s
}

type storeProbe struct {
	inner blockClient
	p     *probe
}

func (s *storeProbe) Put(ctx context.Context, nodeID string, data []byte) (cid.CID, error) {
	start := time.Now()
	c, err := s.inner.Put(ctx, nodeID, data)
	s.p.rpc()
	s.p.call("storage", "put", start, len(data))
	return c, err
}

func (s *storeProbe) Get(ctx context.Context, nodeID string, c cid.CID) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.Get(ctx, nodeID, c)
	s.p.rpc()
	s.p.call("storage", "get", start, len(data))
	return data, err
}

// Fetch is a get routed by content alone; it counts as a get.
func (s *storeProbe) Fetch(ctx context.Context, c cid.CID) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.Fetch(ctx, c)
	s.p.rpc()
	s.p.call("storage", "get", start, len(data))
	return data, err
}

func (s *storeProbe) MergeGet(ctx context.Context, nodeID string, cs []cid.CID) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.MergeGet(ctx, nodeID, cs)
	s.merged(start, len(cs), len(data))
	return data, err
}

func (s *storeProbe) MergeGetSpan(ctx context.Context, nodeID string, cs []cid.CID, parent obs.SpanContext) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.MergeGetSpan(ctx, nodeID, cs, parent)
	s.merged(start, len(cs), len(data))
	return data, err
}

func (s *storeProbe) merged(start time.Time, blocks, bytes int) {
	s.p.rpc()
	s.p.call("storage", "merge", start, bytes)
	s.p.add("storage.merge_blocks", float64(blocks))
}

func (s *storeProbe) DeleteAll(c cid.CID) {
	s.p.rpc()
	s.inner.DeleteAll(c)
}

type pubsubProbe struct {
	*storeProbe
	ann core.Announcer
}

func (s *pubsubProbe) Announce(topic, from string, data []byte) {
	s.p.rpc()
	s.ann.Announce(topic, from, data)
}

func (s *pubsubProbe) Listen(topic string, since int) ([]storage.Announcement, int) {
	s.p.add("storage.listen_calls", 1)
	s.p.rpc()
	return s.ann.Listen(topic, since)
}

func (s *pubsubProbe) ForgetTopic(topic string) {
	s.p.rpc()
	s.ann.ForgetTopic(topic)
}

// wrapDir wraps a directory client. The inner surface is the one the
// resilience layer requires, which every directory client in the repo
// has; the Byzantine capabilities are forwarded by assertion.
func (p *probe) wrapDir(inner resilience.DirectoryService) *dirProbe {
	return &dirProbe{inner: inner, p: p}
}

type dirProbe struct {
	inner resilience.DirectoryService
	p     *probe
}

func (d *dirProbe) Publish(ctx context.Context, rec directory.Record) error {
	start := time.Now()
	err := d.inner.Publish(ctx, rec)
	d.p.rpc()
	d.p.call("directory", "publish", start, 0)
	if rec.Addr.Type == directory.TypeUpdate {
		d.p.add("directory.publish_update_calls", 1)
		d.p.add("directory.publish_update_s", time.Since(start).Seconds())
	}
	return err
}

func (d *dirProbe) PublishBatch(ctx context.Context, recs []directory.Record) error {
	start := time.Now()
	err := d.inner.PublishBatch(ctx, recs)
	d.p.rpc()
	d.p.call("directory", "publish", start, 0)
	return err
}

func (d *dirProbe) Lookup(ctx context.Context, addr directory.Addr) (directory.Record, error) {
	d.p.rpc()
	return d.inner.Lookup(ctx, addr)
}

func (d *dirProbe) GradientsFor(ctx context.Context, iter, partition int, aggregator string) []directory.Record {
	d.poll()
	return d.inner.GradientsFor(ctx, iter, partition, aggregator)
}

func (d *dirProbe) PartialUpdates(ctx context.Context, iter, partition int) []directory.Record {
	d.poll()
	return d.inner.PartialUpdates(ctx, iter, partition)
}

func (d *dirProbe) Update(ctx context.Context, iter, partition int) (directory.Record, error) {
	d.poll()
	return d.inner.Update(ctx, iter, partition)
}

// poll counts one directory query a waiting role issues; polls carry no
// span, as thousands run per round.
func (d *dirProbe) poll() {
	d.p.add("directory.poll_calls", 1)
	d.p.rpc()
}

func (d *dirProbe) PartitionAccumulator(ctx context.Context, iter, partition int) (pedersen.Commitment, error) {
	d.p.rpc()
	return d.inner.PartitionAccumulator(ctx, iter, partition)
}

func (d *dirProbe) AggregatorAccumulator(ctx context.Context, iter, partition int, aggregator string) (pedersen.Commitment, int, error) {
	d.p.rpc()
	return d.inner.AggregatorAccumulator(ctx, iter, partition, aggregator)
}

func (d *dirProbe) VerifyPartialUpdate(ctx context.Context, iter, partition int, aggregator string, data []byte) (bool, error) {
	start := time.Now()
	ok, err := d.inner.VerifyPartialUpdate(ctx, iter, partition, aggregator, data)
	d.p.rpc()
	d.p.call("directory", "verify_partial", start, len(data))
	return ok, err
}

func (d *dirProbe) SetSchedule(iter int, tTrain time.Time) {
	d.p.rpc()
	d.inner.SetSchedule(iter, tTrain)
}

func (d *dirProbe) RecordsForIter(iter int) []directory.Record {
	d.p.rpc()
	return d.inner.RecordsForIter(iter)
}

// byzantineDirectory is the optional Byzantine-tolerance surface the
// session asserts for.
type byzantineDirectory interface {
	ExpungeGradient(ctx context.Context, addr directory.Addr) error
	Quarantine(trainer string, fromIter int)
}

func (d *dirProbe) ExpungeGradient(ctx context.Context, addr directory.Addr) error {
	bd, ok := d.inner.(byzantineDirectory)
	if !ok {
		return fmt.Errorf("perfbench: directory %T does not support expunge", d.inner)
	}
	d.p.rpc()
	return bd.ExpungeGradient(ctx, addr)
}

func (d *dirProbe) Quarantine(trainer string, fromIter int) {
	if bd, ok := d.inner.(byzantineDirectory); ok {
		d.p.rpc()
		bd.Quarantine(trainer, fromIter)
	}
}

// fetcher wraps the block fetcher the directory verifies updates with.
func (p *probe) fetcher(inner directory.BlockFetcher) directory.BlockFetcher {
	return fetchProbe{inner: inner, p: p}
}

type fetchProbe struct {
	inner directory.BlockFetcher
	p     *probe
}

func (f fetchProbe) Get(ctx context.Context, nodeID string, c cid.CID) ([]byte, error) {
	start := time.Now()
	data, err := f.inner.Get(ctx, nodeID, c)
	f.p.call("directory", "fetch", start, len(data))
	return data, err
}
