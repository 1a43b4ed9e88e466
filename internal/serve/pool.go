package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/mat"
	"gnnvault/internal/subgraph"
)

// request is one queued inference. A nil x marks a node-level query; a
// non-nil scores marks a score query, one row per label.
type request struct {
	key    string // vault ID runs group on; "" behind single-vault front-ends
	x      *mat.Matrix
	nodes  []int
	out    []int
	scores [][]float64
	err    error
	enq    time.Time
	done   chan struct{}
}

// lane is one worker's handle on a serving backend: where a same-vault
// run's workspace comes from and how one prediction runs on it. The pool
// owns everything else — queueing, batching, run grouping, seed
// coalescing, deadlines and accounting.
type lane interface {
	// open checks out the workspace for one run of key's full-graph
	// (node false) or node-query (node true) requests. Every successful
	// open is paired with one close. A node run reports its shape.
	open(key string, node bool) (runShape, error)
	close(key string, node bool)
	// predict runs one full-graph pass over x — with the raw logits when
	// scores is set — returning workspace-owned labels and logits plus the
	// pass's modelled spill bytes.
	predict(ctx context.Context, x *mat.Matrix, scores bool) ([]int, *mat.Matrix, int64, error)
	// route picks the run route (shard) that serves a node query.
	route(nodes []int, enq time.Time) (int, error)
	// predictNodes runs one coalesced extraction over union on route,
	// returning workspace-owned labels (and logits when scores is set),
	// one per union seed.
	predictNodes(ctx context.Context, union []int, route int, scores bool) ([]int, *mat.Matrix, error)
	// degraded reports whether part of the backend is offline, so that a
	// success counts as degraded serving.
	degraded() bool
}

// runShape describes a node-query run: the vault's node count (the valid
// seed range), the seed cap of one extraction, and how many routes its
// queries can be routed to.
type runShape struct{ nodes, maxSeeds, routes int }

// pool is the serving core behind every front-end: one bounded queue
// drained in micro-batches by one worker per lane. GNN inference is
// full-graph, so requests cannot be fused into a wider matrix, but
// draining in batches amortises scheduling and keeps each worker's
// workspace cache-hot across consecutive requests; consecutive same-vault
// requests in a batch share one workspace checkout per kind, and their
// node queries share subgraph extractions.
type pool struct {
	cfg Config
	// nodeQueries false refuses node queries before they are enqueued.
	nodeQueries bool
	reqs        chan *request
	free        sync.Pool

	// sendMu lets close wait out in-flight sends before closing the queue
	// channel.
	sendMu    sync.RWMutex
	closed    atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
	teardown  func() // runs once every worker has exited; may be nil
	start     time.Time

	counters
}

// newPool starts one worker per lane over a queue of two full
// micro-batches per worker — deep enough that a worker finishing a batch
// finds the next one waiting, shallow enough that a burst beyond it
// blocks its callers (backpressure). cfg must carry its defaults.
func newPool(cfg Config, nodeQueries bool, lanes []lane, teardown func()) *pool {
	p := &pool{
		cfg:         cfg,
		nodeQueries: nodeQueries,
		reqs:        make(chan *request, cfg.Workers*cfg.MaxBatch*2),
		teardown:    teardown,
		start:       time.Now(),
	}
	p.free.New = func() any { return &request{done: make(chan struct{}, 1)} }
	for _, ln := range lanes {
		p.wg.Add(1)
		go p.worker(ln)
	}
	return p
}

func (p *pool) predict(key string, x *mat.Matrix) ([]int, error) {
	return labelsOf(p.submit(key, x, nil, false))
}

func (p *pool) predictScores(key string, x *mat.Matrix) ([][]float64, []int, error) {
	return p.submit(key, x, nil, true)
}

func (p *pool) predictNodes(key string, nodes []int) ([]int, error) {
	return labelsOf(p.submit(key, nil, nodes, false))
}

func (p *pool) predictNodesScores(key string, nodes []int) ([][]float64, []int, error) {
	return p.submit(key, nil, nodes, true)
}

// labelsOf drops the score rows of a label-only answer.
func labelsOf(_ [][]float64, labels []int, err error) ([]int, error) { return labels, err }

// submit enqueues one request — full-graph over x, or node-level over
// nodes when x is nil — and blocks until a worker answers. Returned
// slices are freshly allocated and owned by the caller. Blocks for
// backpressure when the queue is full.
func (p *pool) submit(key string, x *mat.Matrix, nodes []int, scores bool) ([][]float64, []int, error) {
	if scores && !p.cfg.ExposeScores {
		return nil, nil, ErrScoresDisabled
	}
	n := len(nodes)
	if x != nil {
		n = x.Rows
	} else if !p.nodeQueries {
		return nil, nil, ErrNodeQueriesDisabled
	} else if n == 0 {
		return [][]float64{}, []int{}, nil
	}
	req := p.free.Get().(*request)
	req.key, req.x, req.nodes = key, x, nodes
	req.out = make([]int, n)
	if scores {
		req.scores = make([][]float64, n)
	}
	req.enq = time.Now()

	p.sendMu.RLock()
	if p.closed.Load() {
		p.sendMu.RUnlock()
		*req = request{done: req.done}
		p.free.Put(req)
		return nil, nil, ErrClosed
	}
	p.requests.Add(1)
	p.reqs <- req
	p.sendMu.RUnlock()

	<-req.done
	rows, out, err := req.scores, req.out, req.err
	*req = request{done: req.done}
	p.free.Put(req)
	if err != nil {
		return nil, nil, err
	}
	return rows, out, nil
}

// worker drains the queue in micro-batches: one blocking receive, then
// whatever else is already queued, up to MaxBatch. Each run of
// consecutive same-vault requests is served full-graph first, then node
// queries, each kind under one workspace checkout.
func (p *pool) worker(ln lane) {
	defer p.wg.Done()
	batch := make([]*request, 0, p.cfg.MaxBatch)
	full := make([]*request, 0, p.cfg.MaxBatch)
	node := make([]*request, 0, p.cfg.MaxBatch)
	var st nodeState
	for {
		req, ok := <-p.reqs
		if !ok {
			return
		}
		batch = append(batch[:0], req)
	drain:
		for len(batch) < p.cfg.MaxBatch {
			select {
			case r, ok := <-p.reqs:
				if !ok {
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		p.batches.Add(1)
		for i := 0; i < len(batch); {
			key := batch[i].key
			full, node = full[:0], node[:0]
			for ; i < len(batch) && batch[i].key == key; i++ {
				if batch[i].x == nil {
					node = append(node, batch[i])
				} else {
					full = append(full, batch[i])
				}
			}
			if len(full) > 0 {
				p.answerFull(ln, key, full)
			}
			if len(node) > 0 {
				p.answerNodes(ln, key, node, &st)
			}
		}
	}
}

// answerFull serves one run's full-graph requests under one workspace
// checkout, each pass bounded by its own request's remaining deadline.
func (p *pool) answerFull(ln lane, key string, reqs []*request) {
	if _, err := ln.open(key, false); err != nil {
		for _, r := range reqs {
			p.finish(r, err)
		}
		return
	}
	defer ln.close(key, false)
	for _, r := range reqs {
		ctx, cancel, err := p.requestContext(r.enq)
		if err == nil {
			var labels []int
			var logits *mat.Matrix
			var spill int64
			labels, logits, spill, err = ln.predict(ctx, r.x, r.scores != nil)
			cancel()
			if err == nil {
				copy(r.out, labels)       // the workspace's label buffer is reused
				for i := range r.scores { // the machine's output view is reused
					r.scores[i] = p.cfg.defendedRow(logits.Row(i))
				}
				p.spillBytes.Add(spill)
			}
		}
		p.finish(r, err)
	}
}

// nodeState is one worker's reusable node-query buffers: a run's requests
// bucketed by route, and one seed coalescer per route so unions never mix
// routes.
type nodeState struct {
	byRoute [][]*request
	cos     []coalescer
}

// reset sizes the buffers for a run of the given shape and empties them.
func (st *nodeState) reset(sh runShape) {
	for len(st.byRoute) < sh.routes {
		st.byRoute = append(st.byRoute, nil)
		st.cos = append(st.cos, coalescer{})
	}
	for i := 0; i < sh.routes; i++ {
		st.byRoute[i] = st.byRoute[i][:0]
		if st.cos[i].maxSeeds != sh.maxSeeds {
			st.cos[i] = newCoalescer(sh.maxSeeds)
		}
	}
}

// answerNodes serves one run's node queries under one subgraph-workspace
// checkout. Each request is validated and routed alone first — an
// out-of-range seed or an offline owner fails only its own query, never
// the valid queries coalesced beside it — then each route's requests are
// packed into as few shared extractions as MaxSeeds admits.
func (p *pool) answerNodes(ln lane, key string, reqs []*request, st *nodeState) {
	shape, err := ln.open(key, true)
	if err != nil {
		for _, r := range reqs {
			p.finish(r, err)
		}
		return
	}
	defer ln.close(key, true)
	st.reset(shape)
	for _, r := range reqs {
		if !nodesInRange(r.nodes, shape.nodes) {
			p.finish(r, core.ErrNodeOutOfRange)
			continue
		}
		rt, err := ln.route(r.nodes, r.enq)
		if err != nil {
			p.finish(r, err)
			continue
		}
		st.byRoute[rt] = append(st.byRoute[rt], r)
	}
	for rt, run := range st.byRoute[:shape.routes] {
		st.cos[rt].pack(len(run),
			func(i int) []int { return run[i].nodes },
			func(i int, err error) { p.finish(run[i], err) },
			func(idxs, union []int) { p.answerChunk(ln, rt, run, idxs, union) })
	}
}

// answerChunk runs one shared extraction and scatters it back to the
// chunk's requests. One score query in the chunk upgrades the whole
// extraction to the scores variant; label-only requests still read just
// their labels. The chunk's deadline budget is its oldest member's:
// requests are packed in arrival order, so that is the first index.
func (p *pool) answerChunk(ln lane, rt int, run []*request, idxs, union []int) {
	wantScores := false
	for _, i := range idxs {
		if run[i].scores != nil {
			wantScores = true
			break
		}
	}
	ctx, cancel, err := p.requestContext(run[idxs[0]].enq)
	var labels []int
	var logits *mat.Matrix
	if err == nil {
		labels, logits, err = ln.predictNodes(ctx, union, rt, wantScores)
		cancel()
	}
	degraded := err == nil && ln.degraded()
	for _, i := range idxs {
		r := run[i]
		if err == nil {
			for k, u := range r.nodes {
				j := indexOf(union, u)
				r.out[k] = labels[j]
				if r.scores != nil {
					r.scores[k] = p.cfg.defendedRow(logits.Row(j))
				}
			}
			if degraded {
				p.degraded.Add(1)
			}
		}
		p.finish(r, err)
	}
}

// requestContext derives the execution context for a request enqueued at
// enq under Config.Deadline: a deadline-bounded context carrying the
// remaining budget, or an error when the request already overstayed it
// in the queue. Without a configured deadline the background context
// comes back with a no-op cancel.
func (p *pool) requestContext(enq time.Time) (context.Context, context.CancelFunc, error) {
	if p.cfg.Deadline <= 0 {
		return context.Background(), func() {}, nil
	}
	remaining := p.cfg.Deadline - time.Since(enq)
	if remaining <= 0 {
		return nil, nil, fmt.Errorf("serve: request exceeded its %v deadline in queue: %w", p.cfg.Deadline, context.DeadlineExceeded)
	}
	ctx, cancel := context.WithTimeout(context.Background(), remaining)
	return ctx, cancel, nil
}

// finish completes one request with err (nil on success): it records the
// outcome and enqueue→answer latency, then wakes the caller.
func (p *pool) finish(r *request, err error) {
	r.err = err
	p.observe(err, r.enq, r.x == nil)
	r.done <- struct{}{}
}

func (p *pool) stats() Stats { return p.snapshot(p.start) }

// close stops accepting requests, waits for queued work to finish, then
// runs the backend's teardown. Idempotent; concurrent callers block until
// teardown completes.
func (p *pool) close() {
	p.closeOnce.Do(func() {
		p.closed.Store(true)
		p.sendMu.Lock()
		close(p.reqs)
		p.sendMu.Unlock()
		p.wg.Wait()
		if p.teardown != nil {
			p.teardown()
		}
	})
}

// nodesInRange reports whether every seed falls inside [0, n).
func nodesInRange(nodes []int, n int) bool {
	for _, u := range nodes {
		if u < 0 || u >= n {
			return false
		}
	}
	return true
}

// indexOf returns the position of u in union (which holds at most
// MaxSeeds entries — a linear scan beats any map at that size).
func indexOf(union []int, u int) int {
	for i, v := range union {
		if v == u {
			return i
		}
	}
	return -1 // unreachable: every request node was packed into its union
}

// coalescer packs a run of node queries' seed sets into shared extraction
// unions of at most maxSeeds distinct seeds. Buffers are reused across
// batches, so steady-state packing never allocates beyond the callbacks.
type coalescer struct {
	maxSeeds int
	union    []int
	idxs     []int
}

// newCoalescer sizes a coalescer for unions of maxSeeds seeds.
func newCoalescer(maxSeeds int) coalescer {
	return coalescer{
		maxSeeds: maxSeeds,
		union:    make([]int, 0, maxSeeds),
		idxs:     make([]int, 0, 16),
	}
}

// pack walks requests 0..n-1 in order (their seed sets read through
// seeds), growing the current union until the next request's unseen seeds
// would overflow it, then flushes the accumulated request indices and
// union through serve. Requests whose own distinct seed set cannot fit
// any union fail through reject with subgraph.ErrTooManySeeds; empty
// requests complete through reject with a nil error.
func (c *coalescer) pack(n int, seeds func(int) []int, reject func(int, error), serve func(idxs, union []int)) {
	c.union = c.union[:0]
	c.idxs = c.idxs[:0]
	flush := func() {
		if len(c.idxs) > 0 {
			serve(c.idxs, c.union)
			c.union = c.union[:0]
			c.idxs = c.idxs[:0]
		}
	}
	for i := 0; i < n; i++ {
		nodes := seeds(i)
		if len(nodes) == 0 {
			reject(i, nil) // zero labels requested: answered without work
			continue
		}
		if distinctCount(nodes) > c.maxSeeds {
			reject(i, subgraph.ErrTooManySeeds)
			continue
		}
		if len(c.union)+c.countFresh(nodes) > c.maxSeeds {
			flush()
		}
		for _, u := range nodes {
			if indexOf(c.union, u) < 0 {
				c.union = append(c.union, u)
			}
		}
		c.idxs = append(c.idxs, i)
	}
	flush()
}

// countFresh returns how many distinct seeds of nodes are not yet in the
// union — the union growth admitting this request would cost.
func (c *coalescer) countFresh(nodes []int) int {
	fresh := 0
	for i, u := range nodes {
		if indexOf(c.union, u) >= 0 || indexOf(nodes[:i], u) >= 0 {
			continue
		}
		fresh++
	}
	return fresh
}

// distinctCount returns the number of distinct seeds in nodes.
func distinctCount(nodes []int) int {
	n := 0
	for i, u := range nodes {
		if indexOf(nodes[:i], u) < 0 {
			n++
		}
	}
	return n
}
