package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
	"gnnvault/internal/serve"
	"gnnvault/internal/substitute"
)

// request is one generated query: the endpoint, the vault and the node
// list, plus its pre-encoded JSON body so client-side encoding stays out
// of the timed path.
type request struct {
	path  string // "/predict" or "/predict_nodes"
	vault string
	vi    int   // index into the workload's vault table
	nodes []int // seeds for /predict_nodes; nil asks for every label
	body  []byte
}

// member is one deployed vault with everything the benchmark needs to
// drive and check it.
type member struct {
	id    string
	ds    *datasets.Dataset
	bb    *core.Backbone
	rec   *core.Rectifier
	vault *core.Vault // nil on the shard fleet
	ref   []int       // reference labels the served answers must equal
	exact []int       // exact fp64 full-graph labels, for node_agreement
}

// stack is one workload's serving stack: the real serve.API over either
// a registry fleet (MultiServer) or a shard fleet (ShardedServer), bound
// to a loopback HTTP listener.
type stack struct {
	api     *serve.API
	multi   *serve.MultiServer
	reg     *registry.Registry
	encl    *enclave.Enclave // the registry fleet's shared enclave
	shard   *serve.ShardedServer
	sv      *core.ShardedVault
	members []member

	url   string
	hsrv  *http.Server
	done  chan struct{}
	close func()

	// plan records what the stack actually planned, for the run metadata.
	plan planInfo
	// shardRef is the in-proc sharded reference workspace (shard-int8).
	shardRef *core.ShardedWorkspace
	// shardPlanMS is how long planning shardRef took (shard-int8).
	shardPlanMS float64
	// nq is the node-query sampling geometry (node-queries).
	nq *registry.NodeQueryConfig
	// setupCalls counts the inference calls set-up made (references and
	// warm-ups); any that fails aborts set-up.
	setupCalls int
}

// planInfo is the planned execution shape reported with every result.
type planInfo struct {
	Precision   string `json:"precision"`
	Tiled       bool   `json:"tiled"`
	TileRows    int    `json:"tile_rows"`
	TileWorkers int    `json:"tile_workers"`
	Shards      int    `json:"shards"`
	EPCMB       int64  `json:"epc_mb_per_enclave"`
	BudgetMB    int64  `json:"workspace_budget_mb"`
	VaultSeed   int64  `json:"vault_seed,omitempty"` // shard-int8: the vault the run seed picked
}

// serveHTTP binds the API handler to a loopback port.
func (s *stack) serveHTTP() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.hsrv = &http.Server{Handler: s.api.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.hsrv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return nil
}

// shutdown stops the HTTP server, waits for its goroutine, and tears the
// serving stack down.
func (s *stack) shutdown() {
	if s.hsrv != nil {
		_ = s.hsrv.Close() // closing listener and idle conns; nothing to flush
		<-s.done
	}
	if s.close != nil {
		s.close()
	}
}

func trainCfg(epochs int, seed int64) core.TrainConfig {
	return core.TrainConfig{Epochs: epochs, LR: 0.01, WeightDecay: 5e-4, Seed: seed}
}

// fleetOrder is the fixed popularity ranking of the fleet-fullgraph
// vaults (index 0 most popular under the Zipf draw). Datasets interleave
// so every popularity band mixes graph sizes; the order is the same for
// every seed so seeds change the request sequence, not the mix.
var fleetOrder = []struct{ ds, design string }{
	{"cora", "parallel"}, {"citeseer", "series"}, {"pubmed", "cascaded"},
	{"cora", "series"}, {"citeseer", "cascaded"}, {"pubmed", "parallel"},
	{"cora", "cascaded"}, {"citeseer", "parallel"}, {"pubmed", "series"},
}

// buildFleet trains and deploys the nine Table I stand-in vaults into one
// enclave behind the EPC-aware registry and a MultiServer, untiled fp64.
func buildFleet(cfg ledger, seed int64, prog obs.Recorder) (*stack, error) {
	lc := cfg.Fleet
	type trained struct {
		ds *datasets.Dataset
		bb *core.Backbone
	}
	byDS := map[string]trained{}
	var members []member
	var ids [][]byte
	for _, fo := range fleetOrder {
		t, ok := byDS[fo.ds]
		if !ok {
			dc := datasets.ConfigOf(fo.ds)
			dc.Seed += seed
			ds := datasets.Generate(dc)
			sub := substitute.Build(substitute.KindKNN, ds.X, 2, ds.Graph.NumUndirectedEdges(), seed)
			t = trained{ds, core.TrainBackbone(ds, core.SpecForDataset(fo.ds), substitute.KindKNN, sub, trainCfg(lc.Epochs, seed))}
			byDS[fo.ds] = t
		}
		rec := core.TrainRectifier(t.ds, t.bb, core.RectifierDesign(fo.design), trainCfg(lc.Epochs, seed))
		members = append(members, member{id: fo.ds + "/" + fo.design, ds: t.ds, bb: t.bb, rec: rec})
		ids = append(ids, rec.Identity())
	}
	cost := enclave.DefaultCostModel()
	cost.EPCBytes = lc.EPCMB << 20
	encl := enclave.New(cost, ids...)
	rcfg := registry.Config{WorkspacesPerVault: lc.Workers}
	if prog != nil {
		rcfg.Recorder = prog
	}
	reg := registry.New(encl, rcfg)
	for i := range members {
		m := &members[i]
		v, err := core.DeployInto(encl, m.bb, m.rec, m.ds.Graph)
		if err != nil {
			return nil, fmt.Errorf("deploy %s: %w", m.id, err)
		}
		if err := reg.Register(m.id, v); err != nil {
			return nil, fmt.Errorf("register %s: %w", m.id, err)
		}
		m.vault = v
	}
	multi := serve.NewMulti(reg, serve.Config{Workers: lc.Workers, MaxBatch: 8})
	s := &stack{
		multi: multi, reg: reg, encl: encl, members: members,
		plan: planInfo{Precision: "fp64", Shards: 1, EPCMB: lc.EPCMB},
	}
	s.api = serve.NewAPI(multi, reg, apiConfig(members, false, "fp64"))
	s.close = func() {
		multi.Close()
		reg.Close()
		for _, m := range members {
			m.vault.Undeploy()
		}
	}
	// Warm-up and reference in one: one in-proc pass per vault through
	// the same public API the HTTP handler calls.
	for i := range members {
		m := &members[i]
		labels, err := s.api.Predict("setup", m.id, nil)
		s.setupCalls++
		if err != nil {
			s.shutdown()
			return nil, fmt.Errorf("reference %s: %w", m.id, err)
		}
		m.ref = append([]int(nil), labels...)
		m.exact = m.ref
	}
	// The planned shape, read back from one workspace of the most popular
	// vault.
	if _, ws, err := reg.Acquire(members[0].id); err == nil {
		s.plan.TileRows, s.plan.TileWorkers = ws.TileRows(), ws.TileWorkers()
		reg.Release(members[0].id, ws)
	} else {
		s.shutdown()
		return nil, fmt.Errorf("acquire %s: %w", members[0].id, err)
	}
	return s, nil
}

// powerLaw generates the power-law dataset, its public substitute graph
// and a trained series-rectifier vault pair for the node-queries and
// shard-int8 workloads.
func powerLaw(nodes, epochs int, seed int64) (*datasets.Dataset, *core.Backbone, *core.Rectifier) {
	ds := datasets.GeneratePowerLaw(datasets.PowerLawConfig{Nodes: nodes, Seed: seed})
	sub := graph.PreferentialAttachment(graph.PreferentialAttachmentConfig{
		Nodes: nodes, EdgesPerNode: 8, Seed: seed + 999,
	})
	spec := core.ModelSpec{Name: "bench-pl", BackboneHidden: []int{64, 32}, RectifierHidden: []int{32, 16}}
	bb := core.TrainBackbone(ds, spec, substitute.KindRandom, sub, trainCfg(epochs, seed))
	rec := core.TrainRectifier(ds, bb, core.Series, trainCfg(epochs, seed))
	return ds, bb, rec
}

// buildNodeQueries deploys one power-law vault behind the registry with
// node-level serving enabled. The exact full-graph labels come from one
// in-proc /predict pass through the same API.
func buildNodeQueries(cfg ledger, seed int64, prog obs.Recorder) (*stack, error) {
	lc := cfg.NodeQueries
	ds, bb, rec := powerLaw(lc.Nodes, lc.Epochs, seed)
	cost := enclave.DefaultCostModel()
	cost.EPCBytes = lc.EPCMB << 20
	encl := enclave.New(cost, rec.Identity())
	nq := &registry.NodeQueryConfig{Hops: lc.Hops, Fanout: lc.Fanout, MaxSeeds: 16, Seed: uint64(seed)}
	rcfg := registry.Config{WorkspacesPerVault: lc.Connections, NodeQuery: nq}
	if prog != nil {
		rcfg.Recorder = prog
	}
	reg := registry.New(encl, rcfg)
	v, err := core.DeployInto(encl, bb, rec, ds.Graph)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	id := ds.Name + "/series"
	if err := reg.Register(id, v); err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	if err := reg.EnableNodeQueries(id, ds.X); err != nil {
		return nil, fmt.Errorf("enable node queries: %w", err)
	}
	multi := serve.NewMulti(reg, serve.Config{Workers: lc.Connections, MaxBatch: 8})
	members := []member{{id: id, ds: ds, bb: bb, rec: rec, vault: v}}
	s := &stack{
		multi: multi, reg: reg, encl: encl, members: members, nq: nq,
		plan: planInfo{Precision: "fp64", Shards: 1, EPCMB: lc.EPCMB},
	}
	s.api = serve.NewAPI(multi, reg, apiConfig(members, true, "fp64"))
	s.close = func() {
		multi.Close()
		reg.Close()
		v.Undeploy()
	}
	exact, err := s.api.Predict("setup", id, nil)
	s.setupCalls++
	if err != nil {
		s.shutdown()
		return nil, fmt.Errorf("exact reference: %w", err)
	}
	s.members[0].exact = append([]int(nil), exact...)
	// Warm the node-query path: plan the subgraph workspaces.
	for c := 0; c < lc.Connections; c++ {
		s.setupCalls++
		if _, err := s.api.PredictNodes("setup", id, []int{c}); err != nil {
			s.shutdown()
			return nil, fmt.Errorf("node-query warm-up: %w", err)
		}
	}
	if _, ws, err := reg.Acquire(id); err == nil {
		s.plan.TileRows, s.plan.TileWorkers = ws.TileRows(), ws.TileWorkers()
		reg.Release(id, ws)
	} else {
		s.shutdown()
		return nil, fmt.Errorf("acquire: %w", err)
	}
	return s, nil
}

// buildShard deploys one power-law vault across a fleet of shard
// enclaves and serves it through the ShardedServer with tiled, calibrated
// int8 plans. The reference is a single in-proc sharded workspace planned
// with the same config; the exact labels come from an fp64 sharded plan.
func buildShard(cfg ledger, seed int64, prog obs.Recorder) (*stack, error) {
	lc := cfg.Shard
	vaultSeed := lc.VaultSeeds[int(uint64(seed)%uint64(len(lc.VaultSeeds)))]
	ds, bb, rec := powerLaw(lc.Nodes, lc.Epochs, vaultSeed)
	cost := enclave.DefaultCostModel()
	cost.EPCBytes = lc.EPCMB << 20
	sv, err := core.DeploySharded(bb, rec, ds.Graph, cost, lc.Shards)
	if err != nil {
		return nil, fmt.Errorf("deploy sharded: %w", err)
	}
	if err := sv.SetCalibrationFeatures(ds.X); err != nil {
		sv.Undeploy()
		return nil, fmt.Errorf("calibration features: %w", err)
	}
	// MinAgreement stays at its zero value: the default 0.99 floor.
	pcfg := core.PlanConfig{EPCBudgetBytes: lc.BudgetMB << 20, Precision: core.PrecisionInt8}
	if prog != nil {
		pcfg.Recorder = prog
	}
	id := ds.Name + "/series"
	m := member{id: id, ds: ds, bb: bb, rec: rec}

	exactWS, err := sv.PlanSharded(sv.Nodes(), core.PlanConfig{EPCBudgetBytes: lc.BudgetMB << 20})
	if err != nil {
		sv.Undeploy()
		return nil, fmt.Errorf("fp64 sharded plan: %w", err)
	}
	exact, _, err := sv.PredictInto(ds.X, exactWS)
	if err != nil {
		exactWS.Release()
		sv.Undeploy()
		return nil, fmt.Errorf("fp64 sharded reference: %w", err)
	}
	m.exact = append([]int(nil), exact...)
	exactWS.Release()

	planStart := time.Now()
	// The reference workspace records its own op spans, which give the
	// planned tile height (a sharded workspace does not expose it); the
	// served workspaces keep pcfg's recorder.
	refCfg, refRing := pcfg, obs.NewRing(1<<12)
	refCfg.Recorder = refRing
	refWS, err := sv.PlanSharded(sv.Nodes(), refCfg)
	planMS := ms(time.Since(planStart))
	if err != nil {
		sv.Undeploy()
		return nil, fmt.Errorf("int8 sharded plan: %w", err)
	}
	ref, _, err := sv.PredictInto(ds.X, refWS)
	if err != nil {
		refWS.Release()
		sv.Undeploy()
		return nil, fmt.Errorf("int8 sharded reference: %w", err)
	}
	m.ref = append([]int(nil), ref...)

	srv, err := serve.NewSharded(sv, serve.Config{Workers: lc.Clients, MaxBatch: 1, Plan: pcfg, Features: ds.X})
	if err != nil {
		refWS.Release()
		sv.Undeploy()
		return nil, fmt.Errorf("sharded server: %w", err)
	}
	s := &stack{
		shard: srv, sv: sv, members: []member{m}, shardRef: refWS, shardPlanMS: planMS,
		plan: planInfo{
			Precision: "int8", Tiled: true, Shards: lc.Shards, EPCMB: lc.EPCMB, BudgetMB: lc.BudgetMB, VaultSeed: vaultSeed,
			TileRows: tileRows(refRing),
			// A sharded workspace does not expose its worker count; core
			// plans max(PlanConfig.Workers, 1) per shard.
			TileWorkers: max(pcfg.Workers, 1),
		},
	}
	s.api = serve.NewShardedAPI(srv, apiConfig(s.members, false, "int8"))
	s.close = func() {
		srv.Close()
		refWS.Release()
		sv.Undeploy()
	}
	// Warm-up: one served pass, which must already match the reference.
	labels, err := s.api.Predict("setup", id, nil)
	s.setupCalls += 3 // with the fp64 and int8 in-proc references
	if err == nil && !equalInts(labels, m.ref) {
		err = errors.New("served labels differ from the in-proc sharded reference")
	}
	if err != nil {
		s.shutdown()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// tileRows is the median rows per tile over the op spans in ring. On the
// shard fleet the per-shard enclave ops outnumber the backbone's, so the
// median is a shard's tile height.
func tileRows(ring *obs.Ring) int {
	var rows []float64
	for _, op := range ring.Last(0) {
		if op.Kind == obs.SpanOp && op.Tiles > 0 {
			rows = append(rows, float64((int(op.Rows)+int(op.Tiles)-1)/int(op.Tiles)))
		}
	}
	return int(orZero(rows))
}

// apiConfig catalogs the members for serve.API.
func apiConfig(members []member, nodeQueries bool, precision string) serve.APIConfig {
	vaults := make([]serve.APIVault, len(members))
	x := make(map[string]*mat.Matrix, len(members))
	for i, m := range members {
		vaults[i] = serve.APIVault{ID: m.id, Dataset: m.ds.Name, Design: string(m.rec.Design), Nodes: m.ds.Graph.N(), Params: m.rec.NumParams()}
		x[m.id] = m.ds.X
	}
	return serve.APIConfig{
		Vaults:      vaults,
		Features:    func(id string) *mat.Matrix { return x[id] },
		NodeQueries: nodeQueries,
		Precision:   precision,
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// edgeSources lists the source node of every directed edge, the draw
// table for degree-biased (hub) seeds.
func edgeSources(g *graph.Graph) []int {
	out := make([]int, 0, g.NumDirectedEdges())
	for _, e := range g.Edges() {
		out = append(out, e.U)
	}
	return out
}

// subSeed derives an independent seed for one of the run's random
// streams from the run seed.
func subSeed(seed int64, stream int64) int64 {
	return rand.New(rand.NewSource(seed*1_000_003 + stream)).Int63()
}
