// Package serve is the concurrent batched inference front-end of the
// simulated edge device: a pool of workers answering a stream of label
// queries over deployed vaults.
//
// One pool does the serving — the bounded queue, micro-batch drain,
// same-vault run grouping, node-query seed coalescing, Config.Deadline and
// the Stats accounting — and three front-ends differ only in the backend
// behind it, which says where a run's workspace comes from and how one
// prediction runs:
//
//   - Server (New) serves one vault from one pre-planned core.Workspace
//     pinned to each worker, so the hot path allocates nothing.
//   - MultiServer (NewMulti) is multi-tenant: requests carry a vault ID and
//     each same-vault run checks a workspace out of a registry.Registry,
//     which plans lazily and evicts least-recently-served vaults when the
//     enclave's EPC cannot hold every tenant (see DESIGN.md, "Multi-vault
//     registry and EPC scheduling").
//   - ShardedServer (NewSharded) fans full-graph queries out across a
//     core.ShardedVault's shard enclaves and routes node queries to their
//     owning shard, behind per-shard circuit breakers and recovery.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
)

// ErrClosed is returned by Predict after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrNodeQueriesDisabled is returned by PredictNodes on a server started
// without Config.NodeQuery, and by a registry-backed server for a vault
// that never enabled node queries: it is registry.ErrNodeQueriesDisabled,
// one sentinel for one condition.
var ErrNodeQueriesDisabled = registry.ErrNodeQueriesDisabled

// Config tunes the worker pool.
type Config struct {
	// Workers is the number of inference workers, each with its own
	// planned workspace (and therefore its own EPC charge). Default 2.
	Workers int
	// MaxBatch caps how many queued requests one worker drains per
	// wake-up. The request queue holds Workers·MaxBatch·2 requests;
	// Predict blocks when it is full (backpressure). Default 8.
	MaxBatch int
	// Plan shapes each worker's full-graph workspace (EPC budget / tile
	// height / kernel worker budget — see core.PlanConfig). The zero value
	// plans classic untiled workspaces. Because the budget is carried per
	// plan, two servers with different settings can coexist in one
	// process without racing on the deprecated mat.SetMaxWorkers global.
	//
	// Plan applies where workspaces are planned up front: by New, and by
	// NewSharded per shard (an EPC budget is each shard enclave's own).
	// MultiServer checks workspaces out of a registry.Registry, so its
	// plan shape is the registry's Config.Plan; this field is ignored
	// there.
	Plan core.PlanConfig
	// NodeQuery, when non-nil, additionally plans one subgraph workspace
	// per worker and opens the PredictNodes path: node-level queries
	// served from sampled L-hop subgraphs at O(hops × fanout) per query.
	// Seed nodes from every node query a worker drains in one wake-up are
	// coalesced into shared extractions of up to MaxSeeds seeds.
	NodeQuery *registry.NodeQueryConfig
	// Features is the deployed graph's public feature matrix, gathered
	// from during subgraph extraction. Required when NodeQuery is set.
	// When set, it is also registered as the vault's calibration batch, so
	// reduced-precision plans (Plan.Precision) can derive their scales and
	// pass the agreement gate.
	Features *mat.Matrix
	// ExposeScores opens the PredictScores/PredictNodesScores surface:
	// per-class softmax posteriors cross the enclave boundary alongside
	// labels. Off by default — label-only output is the paper's strongest
	// defense — and priced into the ECALL result payload when on.
	ExposeScores bool
	// RoundDigits, when > 0, coarsens every exposed score row to that
	// many decimal digits. Rounding is argmax-preserving: the top entry
	// rounds up, the rest round down, so labels never change.
	RoundDigits int
	// TopK, when > 0, keeps only the K largest entries of each exposed
	// score row and zeroes the rest (the argmax entry always survives).
	TopK int
	// Deadline, when > 0, bounds each request's enqueue→answer time: a
	// request still queued past its deadline fails without running, and a
	// pass in flight past it is aborted wherever the core call takes a
	// context — a shard fleet's fan-out through its poisonable barriers, a
	// label-only node query before its ECALL (context.DeadlineExceeded,
	// HTTP 503). Zero serves without a deadline.
	Deadline time.Duration
	// MaxRetries is how many times a node query routed to a tripped
	// shard waits out a jittered exponential backoff for the shard to
	// recover before failing with ErrShardUnavailable. Each wait is
	// bounded by the request's remaining Deadline. Default 0: fail fast.
	MaxRetries int
	// RecoveryBackoff is the base delay of the breaker's automatic
	// recovery loop; attempts back off exponentially (with deterministic
	// jitter) from it. It also paces the node-query retry waits. Default
	// 5ms.
	RecoveryBackoff time.Duration
	// Seed seeds the deterministic jitter applied to recovery and retry
	// backoff, so chaos runs replay exactly. Default 1.
	Seed int64
	// Trace, when non-nil, records shard fault and recovery events into
	// the flight recorder's span ring (the same ring APIConfig.Trace
	// serves on /debug/trace).
	Trace *obs.Ring
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.RecoveryBackoff <= 0 {
		c.RecoveryBackoff = 5 * time.Millisecond
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Stats is a snapshot of the server's counters since New. The latency
// fields all derive from one pair of histogram snapshots taken at the
// same instant, so they are mutually consistent — AvgLatency can never
// exceed MaxLatency, and the quantiles are cut from the same
// distribution the average summarises.
type Stats struct {
	Requests  uint64 // accepted by Predict
	Completed uint64 // answered successfully
	Errors    uint64 // answered with an error
	Batches   uint64 // worker wake-ups (micro-batches)

	AvgBatch   float64       // Completed+Errors per batch
	AvgLatency time.Duration // mean enqueue→answer time
	MaxLatency time.Duration
	P50Latency time.Duration
	P95Latency time.Duration
	P99Latency time.Duration
	Throughput float64 // completed requests per second of uptime
	Uptime     time.Duration

	// FullLatency and NodeLatency are the per-endpoint enqueue→answer
	// distributions (ns samples) the aggregate fields above merge — the
	// same histograms the /metrics scrape surface renders.
	FullLatency obs.HistSnapshot
	NodeLatency obs.HistSnapshot

	// SpillBytes is the accumulated modelled tile-flush traffic of every
	// answered full-graph request (0 for untiled plans).
	SpillBytes int64

	// Degraded counts node queries answered successfully while at least
	// one shard of the fleet was offline — served work the fleet kept
	// doing through an outage.
	Degraded uint64
	// DeadlineExceeded counts requests that failed their Config.Deadline,
	// whether still queued or aborted mid-fan-out.
	DeadlineExceeded uint64
}

// counters aggregates the pool's serving statistics. Latency lives in two obs histograms (one per endpoint
// family) instead of separate sum/max atomics: every derived figure —
// average, max, quantiles, the /metrics exposition — is cut from the
// same buckets, so the old inconsistency where a racing sum and CAS-max
// could report avg > max is gone by construction. Observing stays
// allocation-free (atomic bucket increments).
type counters struct {
	requests   atomic.Uint64
	completed  atomic.Uint64
	errors     atomic.Uint64
	batches    atomic.Uint64
	latFull    obs.Histogram // full-graph enqueue→answer ns
	latNode    obs.Histogram // node-query enqueue→answer ns
	spillBytes atomic.Int64  // modelled tile-flush traffic of answered full-graph requests

	degraded         atomic.Uint64 // node queries answered during a shard outage
	deadlineExceeded atomic.Uint64 // requests failed by Config.Deadline
}

// observe records one answered request: its outcome (a missed
// Config.Deadline counted apart) and its enqueue→answer latency, bucketed
// by endpoint family.
func (c *counters) observe(err error, enq time.Time, node bool) {
	if err != nil {
		c.errors.Add(1)
		if errors.Is(err, context.DeadlineExceeded) {
			c.deadlineExceeded.Add(1)
		}
	} else {
		c.completed.Add(1)
	}
	lat := time.Since(enq).Nanoseconds()
	if node {
		c.latNode.Observe(lat)
	} else {
		c.latFull.Observe(lat)
	}
}

// snapshot derives a Stats from the counters and the server start time.
// All latency figures come from one pair of histogram snapshots.
func (c *counters) snapshot(start time.Time) Stats {
	full := c.latFull.Snapshot()
	node := c.latNode.Snapshot()
	all := full.Merge(node)
	st := Stats{
		Requests:    c.requests.Load(),
		Completed:   c.completed.Load(),
		Errors:      c.errors.Load(),
		Batches:     c.batches.Load(),
		AvgLatency:  time.Duration(all.Avg()),
		MaxLatency:  time.Duration(all.Max),
		P50Latency:  time.Duration(all.Quantile(0.50)),
		P95Latency:  time.Duration(all.Quantile(0.95)),
		P99Latency:  time.Duration(all.Quantile(0.99)),
		Uptime:      time.Since(start),
		FullLatency: full,
		NodeLatency: node,
		SpillBytes:  c.spillBytes.Load(),

		Degraded:         c.degraded.Load(),
		DeadlineExceeded: c.deadlineExceeded.Load(),
	}
	answered := st.Completed + st.Errors
	if st.Batches > 0 {
		st.AvgBatch = float64(answered) / float64(st.Batches)
	}
	if sec := st.Uptime.Seconds(); sec > 0 {
		st.Throughput = float64(st.Completed) / sec
	}
	return st
}

// Server is a pool of inference workers over one deployed vault.
type Server struct{ p *pool }

// New plans one workspace per worker against v — plus one subgraph
// workspace per worker when cfg.NodeQuery is set — and starts the pool.
// It fails — releasing anything it planned — if the combined workspaces do
// not fit the enclave's EPC, which is the real bound on worker concurrency
// for an enclave-backed deployment.
func New(v *core.Vault, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeQuery != nil {
		nq := cfg.NodeQuery.WithDefaults()
		cfg.NodeQuery = &nq
		if cfg.Features == nil || cfg.Features.Rows != v.Nodes() {
			return nil, fmt.Errorf("serve: node queries need the deployed graph's %d-row feature matrix", v.Nodes())
		}
	}
	rows := v.Nodes()
	if cfg.Features != nil {
		if err := v.SetCalibrationFeatures(cfg.Features); err != nil {
			return nil, fmt.Errorf("serve: registering calibration features: %w", err)
		}
	}
	lanes := make([]lane, 0, cfg.Workers)
	var planned []interface{ Release() }
	release := func() {
		for _, w := range planned {
			w.Release()
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		ws, err := v.PlanWith(rows, cfg.Plan)
		if err != nil {
			release()
			return nil, fmt.Errorf("serve: planning workspace for worker %d/%d: %w", i+1, cfg.Workers, err)
		}
		planned = append(planned, ws)
		l := &vaultLane{v: v, x: cfg.Features, ws: ws}
		if cfg.NodeQuery != nil {
			if l.sub, err = v.PlanSubgraphWith(cfg.NodeQuery.MaxSeeds, cfg.NodeQuery.Subgraph(), cfg.Plan); err != nil {
				release()
				return nil, fmt.Errorf("serve: planning node-query workspace for worker %d/%d: %w", i+1, cfg.Workers, err)
			}
			planned = append(planned, l.sub)
		}
		lanes = append(lanes, l)
	}
	return &Server{newPool(cfg, cfg.NodeQuery != nil, lanes, release)}, nil
}

// Predict enqueues one inference over x and blocks until a worker answers.
// The returned slice is freshly allocated and owned by the caller. Safe for
// concurrent use; blocks for backpressure when the queue is full.
func (s *Server) Predict(x *mat.Matrix) ([]int, error) { return s.p.predict("", x) }

// PredictScores enqueues one inference over x and blocks until a worker
// answers with the defended per-class posterior row and label for every
// input row. The server must have been started with Config.ExposeScores;
// otherwise it fails with ErrScoresDisabled. Returned slices are freshly
// allocated and owned by the caller.
func (s *Server) PredictScores(x *mat.Matrix) ([][]float64, []int, error) {
	return s.p.predictScores("", x)
}

// PredictNodesScores is PredictNodes for servers exposing scores: one
// defended posterior row and label per requested node, served through the
// same coalesced subgraph extractions. Fails with ErrScoresDisabled when
// Config.ExposeScores is off and ErrNodeQueriesDisabled when node queries
// are not planned.
func (s *Server) PredictNodesScores(nodes []int) ([][]float64, []int, error) {
	return s.p.predictNodesScores("", nodes)
}

// PredictNodes enqueues one node-level query and blocks until a worker
// answers with one label per requested node. The server must have been
// started with Config.NodeQuery; queries whose distinct seed count
// exceeds NodeQuery.MaxSeeds fail with subgraph.ErrTooManySeeds, and
// out-of-range nodes with core.ErrNodeOutOfRange. nodes must not be
// mutated until PredictNodes returns. The returned slice is freshly
// allocated and owned by the caller.
func (s *Server) PredictNodes(nodes []int) ([]int, error) { return s.p.predictNodes("", nodes) }

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats { return s.p.stats() }

// Close stops accepting requests, waits for queued work to finish, and
// releases every worker workspace (returning their EPC to the enclave).
// Idempotent.
func (s *Server) Close() { s.p.close() }

// vaultLane runs one worker's predictions on a core.Vault's workspaces:
// pinned to the worker for its lifetime (New), or — when reg is set —
// checked out of the registry once per same-vault run per kind
// (NewMulti).
type vaultLane struct {
	reg *registry.Registry
	v   *core.Vault
	x   *mat.Matrix // public features node queries gather from
	ws  *core.Workspace
	sub *core.SubgraphWorkspace
}

func (l *vaultLane) open(key string, node bool) (runShape, error) {
	if l.reg != nil {
		var err error
		if node {
			l.v, l.sub, l.x, err = l.reg.AcquireSubgraph(key)
		} else {
			l.v, l.ws, err = l.reg.Acquire(key)
		}
		if err != nil {
			return runShape{}, err
		}
	}
	if !node {
		return runShape{}, nil
	}
	return runShape{nodes: l.v.Nodes(), maxSeeds: l.sub.MaxSeeds(), routes: 1}, nil
}

func (l *vaultLane) close(key string, node bool) {
	if l.reg == nil {
		return // pinned: the workspaces stay with the worker
	}
	if node {
		l.reg.ReleaseSubgraph(key, l.sub)
	} else {
		l.reg.Release(key, l.ws)
	}
}

func (l *vaultLane) predict(_ context.Context, x *mat.Matrix, scores bool) ([]int, *mat.Matrix, int64, error) {
	var labels []int
	var logits *mat.Matrix
	var err error
	if scores {
		logits, labels, _, err = l.v.PredictScoresInto(x, l.ws)
	} else {
		labels, _, err = l.v.PredictInto(x, l.ws)
	}
	return labels, logits, l.ws.SpillBytes(), err
}

func (l *vaultLane) route([]int, time.Time) (int, error) { return 0, nil }

func (l *vaultLane) predictNodes(ctx context.Context, union []int, _ int, scores bool) ([]int, *mat.Matrix, error) {
	if scores {
		logits, labels, _, err := l.v.PredictNodesScoresInto(l.x, union, l.sub)
		return labels, logits, err
	}
	labels, _, err := l.v.PredictNodesIntoContext(ctx, l.x, union, l.sub)
	return labels, nil, err
}

func (l *vaultLane) degraded() bool { return false }
