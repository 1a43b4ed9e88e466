package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/subgraph"
)

// workload names, as BENCHMARK.json and --workload spell them.
const (
	wFleet = "fleet-fullgraph"
	wNode  = "node-queries"
	wShard = "shard-int8"
)

// agreement counts served labels against the exact fp64 full-graph ones.
type agreement struct {
	mu           sync.Mutex
	match, total int
}

func (a *agreement) add(match, total int) {
	a.mu.Lock()
	a.match += match
	a.total += total
	a.mu.Unlock()
}

func (a *agreement) ratio() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.total == 0 {
		return 0
	}
	return float64(a.match) / float64(a.total)
}

// bench is one workload bound to its stack: the seeded request stream,
// the correctness gate every answer passes through, and the traced
// replay of a request through each layer's entry point.
type bench struct {
	name  string
	cfg   ledger
	seed  int64
	s     *stack
	agree agreement

	zipf  zipfPicker
	seeds *seedPicker
}

func newBench(name string, cfg ledger, seed int64, s *stack) *bench {
	b := &bench{name: name, cfg: cfg, seed: seed, s: s}
	switch name {
	case wFleet:
		b.zipf = newZipfPicker(subSeed(seed, 1), cfg.Fleet.ZipfS, len(s.members))
	case wNode:
		nq := cfg.NodeQueries
		g := s.members[0].ds.Graph
		b.seeds = newSeedPicker(subSeed(seed, 2), g.N(), nq.MaxSeeds, nq.UniformShare, edgeSources(g))
	}
	return b
}

// next draws the workload's next request.
func (b *bench) next() request {
	switch b.name {
	case wFleet:
		i := b.zipf.next()
		return newRequest("/predict", b.s.members[i].id, i, nil)
	case wNode:
		return newRequest("/predict_nodes", b.s.members[0].id, 0, b.seeds.next())
	default:
		return newRequest("/predict", b.s.members[0].id, 0, nil)
	}
}

func newRequest(path, vault string, vi int, nodes []int) request {
	body, _ := json.Marshal(struct { // a struct of a string and ints always marshals
		Vault string `json:"vault"`
		Nodes []int  `json:"nodes,omitempty"`
	}{vault, nodes})
	return request{path: path, vault: vault, vi: vi, nodes: nodes, body: body}
}

// check is the correctness gate: full-graph answers must equal the
// reference bit for bit; node-query answers must be one in-range label
// per seed. Every answer also feeds node_agreement.
func (b *bench) check(r request, labels []int) error {
	m := &b.s.members[r.vi]
	if r.nodes == nil {
		if !equalInts(labels, m.ref) {
			return fmt.Errorf("%s: full-graph labels differ from the reference", r.vault)
		}
		match := 0
		for i, l := range labels {
			if l == m.exact[i] {
				match++
			}
		}
		b.agree.add(match, len(labels))
		return nil
	}
	if len(labels) != len(r.nodes) {
		return fmt.Errorf("%s: %d labels for %d seeds", r.vault, len(labels), len(r.nodes))
	}
	classes := m.ds.NumClasses
	match := 0
	for i, l := range labels {
		if l < 0 || l >= classes {
			return fmt.Errorf("%s: label %d outside [0,%d)", r.vault, l, classes)
		}
		if l == m.exact[r.nodes[i]] {
			match++
		}
	}
	b.agree.add(match, len(labels))
	return nil
}

// replayStats gathers what the traced replay measured beyond the spans.
type replayStats struct {
	phase
	tr           *tracer   // the layer chain: self times and coverage come from these
	probes       *tracer   // kernel probes, parented to the chain's core span but not part of it
	untracedHTTP []float64 // ms, the same requests with every recorder off
	acquireHitUS []float64
	acquireMissM []float64
	backboneMS   []float64
	enclaveMS    []float64
	expandUS     []float64
	induceUS     []float64
	extracted    []float64
	kt           kernelTotals
}

// replayer holds the state one workload's traced replay reuses.
type replayer struct {
	b    *bench
	c    *client
	rec  *switchRecorder
	p    *prober
	st   *replayStats
	full map[int][]kernel // fleet/shard: per-vault kernels at full height

	// node-queries: a probe extraction workspace with the served
	// sampling geometry, and both vaults' adjacencies.
	exp           *subgraph.Workspace
	pubCS, privCS *subgraph.CSRSpace
	pub, priv     *graph.NormAdjacency
}

// replay runs a seeded sample of the workload's requests, each twice:
// once over HTTP alone with every recorder off (the untraced baseline for
// trace.overhead_pct), and once through each layer's entry point in
// turn, outermost first, recording a span per call with the program's
// own span recorder on.
func (b *bench) replay(c *client, rec *switchRecorder, n int) (*replayStats, error) {
	st := &replayStats{tr: newTracer(), probes: newTracer()}
	rp := &replayer{b: b, c: c, rec: rec, p: newProber(subSeed(b.seed, 4)), st: st, full: map[int][]kernel{}}
	sample := newBench(b.name, b.cfg, subSeed(b.seed, 3), b.s)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = sample.next()
	}
	if b.name == wNode {
		m := b.s.members[0]
		rp.pub = graph.Normalize(m.bb.SubGraph)
		rp.priv = m.rec.Adjacency()
		plan := subgraph.NewPlan(b.s.nq.Subgraph(), 16, m.ds.Graph.N())
		rp.exp = plan.NewWorkspace()
		rp.pubCS = plan.NewCSRSpace(plan.CapEdges(rp.pub.NNZ()))
		rp.privCS = plan.NewCSRSpace(plan.CapEdges(rp.priv.NNZ()))
	}
	for i, r := range reqs {
		if err := rp.warm(r); err != nil {
			return st, err
		}
		// The untraced call of each pair alternates between running before
		// and after the traced chain, so cache warmth favours neither.
		if i%2 == 0 {
			if err := rp.untraced(r); err != nil {
				return st, err
			}
		}
		rec.on.Store(true)
		err := rp.chain(i+1, r)
		rec.on.Store(false)
		if err != nil {
			return st, err
		}
		if i%2 == 1 {
			if err := rp.untraced(r); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// untraced sends r over HTTP with every recorder off: the baseline the
// traced chain's HTTP call is compared against for trace.overhead_pct.
func (rp *replayer) untraced(r request) error {
	t0 := time.Now()
	labels, o, err := rp.c.do(r)
	d := time.Since(t0)
	if o == okAnswer {
		if err = rp.b.check(r, labels); err != nil {
			o = wrongAnswer
		}
	}
	rp.st.note(o)
	if err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	rp.st.untracedHTTP = append(rp.st.untracedHTTP, ms(d))
	return nil
}

// warm makes the request's vault resident before its calls are timed, so
// every layer of one replayed request sees the same registry state. A
// cold vault's acquire is timed here as registry.acquire_miss.
func (rp *replayer) warm(r request) error {
	s := rp.b.s
	if s.reg == nil || r.nodes != nil {
		return nil
	}
	for _, v := range s.reg.Stats().PerVault {
		if v.ID == r.vault && v.Resident {
			return nil
		}
	}
	rp.rec.on.Store(true) // record the program's plan/evict spans
	t0 := time.Now()
	_, ws, err := s.reg.Acquire(r.vault)
	rp.rec.on.Store(false)
	if err != nil {
		return fmt.Errorf("replay acquire %s: %w", r.vault, err)
	}
	s.reg.Release(r.vault, ws)
	rp.st.acquireMissM = append(rp.st.acquireMissM, ms(time.Since(t0)))
	return nil
}

// chain replays one request through every layer entry point, outermost
// first; each call's span parents the next-inner call's.
func (rp *replayer) chain(req int, r request) error {
	b, s, tr, st := rp.b, rp.b.s, rp.st.tr, rp.st
	m := &s.members[r.vi]
	var err error
	var labels []int
	hs := tr.call("http", 0, req, func() {
		var o outcome
		if labels, o, err = rp.c.do(r); o == okAnswer {
			err = b.check(r, labels)
		}
	})
	full := r.nodes == nil
	var as, ss int
	if err == nil {
		as = tr.call("api", hs, req, func() {
			if full {
				labels, err = s.api.Predict("trace", r.vault, nil)
			} else {
				labels, err = s.api.PredictNodes("trace", r.vault, r.nodes)
			}
			if err == nil {
				err = b.check(r, labels)
			}
		})
	}
	if err == nil {
		ss = tr.call("serve", as, req, func() {
			switch {
			case s.shard != nil:
				labels, err = s.shard.Predict(m.ds.X)
			case full:
				labels, err = s.multi.Predict(r.vault, m.ds.X)
			default:
				labels, err = s.multi.PredictNodes(r.vault, r.nodes)
			}
			if err == nil {
				err = b.check(r, labels)
			}
		})
	}
	if err != nil {
		st.note(failedAnswer)
		return fmt.Errorf("traced replay %s: %w", r.vault, err)
	}
	switch {
	case s.shard != nil:
		err = rp.shardCore(req, ss, m)
	case full:
		err = rp.fleetCore(req, ss, r, m)
	default:
		err = rp.nodeCore(req, ss, r, m)
	}
	if err != nil {
		st.note(failedAnswer)
		return fmt.Errorf("traced replay %s: %w", r.vault, err)
	}
	st.note(okAnswer)
	return nil
}

// fleetCore replays registry acquire → Vault.PredictInto → release and
// the pass's kernels.
func (rp *replayer) fleetCore(req, parent int, r request, m *member) error {
	s, tr, st := rp.b.s, rp.st.tr, rp.st
	var v *core.Vault
	var ws *core.Workspace
	var err error
	acq := tr.call("registry", parent, req, func() { v, ws, err = s.reg.Acquire(r.vault) })
	if err != nil {
		return err
	}
	st.acquireHitUS = append(st.acquireHitUS, float64(tr.spans[acq-1].dur())/1e3)
	var labels []int
	var bd core.InferenceBreakdown
	cs := tr.call("core", parent, req, func() { labels, bd, err = v.PredictInto(m.ds.X, ws) })
	if err == nil && !equalInts(labels, m.ref) {
		err = errors.New("in-proc Vault.PredictInto labels differ from the reference")
	}
	tr.call("registry", parent, req, func() { s.reg.Release(r.vault, ws) })
	if err != nil {
		return err
	}
	st.backboneMS = append(st.backboneMS, ms(bd.BackboneTime))
	st.enclaveMS = append(st.enclaveMS, ms(bd.EnclaveTime))
	ks := rp.full[r.vi]
	if ks == nil {
		ks = modelKernels(m.bb, m.rec, graph.Normalize(m.bb.SubGraph), m.rec.Adjacency(), m.ds.Graph.N(), false)
		rp.full[r.vi] = ks
	}
	rp.kernels(req, cs, ks)
	return nil
}

// nodeCore replays registry subgraph acquire → Vault.PredictNodesInto →
// release, then the pass's subgraph extraction and kernels at the
// extracted shapes.
func (rp *replayer) nodeCore(req, parent int, r request, m *member) error {
	s, tr, st := rp.b.s, rp.st.tr, rp.st
	var v *core.Vault
	var ws *core.SubgraphWorkspace
	var x *mat.Matrix
	var err error
	acq := tr.call("registry", parent, req, func() { v, ws, x, err = s.reg.AcquireSubgraph(r.vault) })
	if err != nil {
		return err
	}
	st.acquireHitUS = append(st.acquireHitUS, float64(tr.spans[acq-1].dur())/1e3)
	var labels []int
	var bd core.InferenceBreakdown
	cs := tr.call("core", parent, req, func() { labels, bd, err = v.PredictNodesInto(x, r.nodes, ws) })
	if err == nil {
		err = rp.b.check(r, labels)
	}
	tr.call("registry", parent, req, func() { s.reg.ReleaseSubgraph(r.vault, ws) })
	if err != nil {
		return err
	}
	st.backboneMS = append(st.backboneMS, ms(bd.BackboneTime))
	st.enclaveMS = append(st.enclaveMS, ms(bd.EnclaveTime))

	var cnt int
	es := tr.call("subgraph.expand", cs, req, func() { cnt, err = rp.exp.Expand(rp.pub, r.nodes) })
	if err != nil {
		return err
	}
	var pubSub, privSub *graph.NormAdjacency
	is := tr.call("subgraph.induce", cs, req, func() {
		if pubSub, err = rp.exp.Induce(rp.pub, rp.pubCS); err == nil {
			privSub, err = rp.exp.Induce(rp.priv, rp.privCS)
		}
	})
	if err != nil {
		return err
	}
	st.expandUS = append(st.expandUS, float64(tr.spans[es-1].dur())/1e3)
	st.induceUS = append(st.induceUS, float64(tr.spans[is-1].dur())/1e3)
	st.extracted = append(st.extracted, float64(cnt))
	rp.kernels(req, cs, modelKernels(m.bb, m.rec, pubSub, privSub, cnt, false))
	return nil
}

// shardCore replays ShardedVault.PredictInto on the in-proc reference
// workspace and the pass's kernels: the fp64 backbone at full height and
// the int8 rectifier over the whole private operator (the shards' work
// summed).
func (rp *replayer) shardCore(req, parent int, m *member) error {
	s, tr, st := rp.b.s, rp.st.tr, rp.st
	var labels []int
	var bd core.InferenceBreakdown
	var err error
	cs := tr.call("core", parent, req, func() { labels, bd, err = s.sv.PredictInto(m.ds.X, s.shardRef) })
	if err == nil && !equalInts(labels, m.ref) {
		err = errors.New("in-proc ShardedVault.PredictInto labels differ from the reference")
	}
	if err != nil {
		return err
	}
	st.backboneMS = append(st.backboneMS, ms(bd.BackboneTime))
	st.enclaveMS = append(st.enclaveMS, ms(bd.EnclaveTime))
	ks := rp.full[0]
	if ks == nil {
		ks = modelKernels(m.bb, m.rec, graph.Normalize(m.bb.SubGraph), m.rec.Adjacency(), m.ds.Graph.N(), true)
		rp.full[0] = ks
	}
	rp.kernels(req, cs, ks)
	return nil
}

// kernels probes the pass's kernels as one probe span under the core
// call, then the same shapes at the other in-enclave precision. Probes
// replicate the pass's kernel work on their own operands rather than
// being part of the call, so they stay out of the self-time arithmetic.
func (rp *replayer) kernels(req, parent int, ks []kernel) {
	rp.st.probes.call("kernels", parent, req, func() {
		for _, k := range ks {
			rp.st.kt.add(k, rp.p.run(k))
		}
	})
	other := withPrecision(ks, !ks[len(ks)-1].int8)
	for _, k := range other {
		if k.workers == 1 {
			rp.st.kt.add(k, rp.p.run(k))
		}
	}
}

// programSpans returns the program's own recorded spans of one kind.
func programSpans(ring *obs.Ring, kind obs.SpanKind) []obs.Span {
	var out []obs.Span
	for _, sp := range ring.Last(0) {
		if sp.Kind == kind {
			out = append(out, sp)
		}
	}
	return out
}
