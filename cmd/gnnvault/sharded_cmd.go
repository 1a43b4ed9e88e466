package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
	"gnnvault/internal/serve"
	"gnnvault/internal/substitute"
)

// shardedServeConfig carries the serve flags into the sharded path.
type shardedServeConfig struct {
	dataset, design, sub string
	epochs               int
	seed                 int64
	shards               int
	epcMB                int64
	workers, batch       int
	plan                 core.PlanConfig
	nq                   *registry.NodeQueryConfig
	clients, requests    int
	httpAddr             string
	limit                *serve.RateLimit
	precision            string
	ring                 *obs.Ring
	recorder             obs.Recorder
	pprof                bool
	deadline             time.Duration
	maxRetries           int
	chaos                int
}

// runSharded trains one dataset × design vault and deploys it across a
// multi-enclave shard fleet: the private CSR cut at nnz-balanced row
// boundaries, every shard sealed in its own enclave with its own -epc-mb
// budget. Queries are served through the shard-aware router — full-graph
// fan-outs stitched in seed order, node queries routed to the owning
// shard — so the admissible graph size scales with -shards while each
// enclave's EPC stays fixed.
func runSharded(cfg shardedServeConfig) {
	dsNames, designs := splitCSV(cfg.dataset), splitCSV(cfg.design)
	if len(dsNames) != 1 || len(designs) != 1 {
		fmt.Fprintln(os.Stderr, "serve: -shards > 1 serves a single dataset × design pair")
		os.Exit(2)
	}
	ds := loadDataset(dsNames[0])
	train := core.TrainConfig{Epochs: cfg.epochs, LR: 0.01, WeightDecay: 5e-4, Seed: cfg.seed}
	spec := core.SpecForDataset(dsNames[0])
	kind := substitute.Kind(cfg.sub)
	subGraph := substitute.Build(kind, ds.X, 2, ds.Graph.NumUndirectedEdges(), cfg.seed)
	fmt.Printf("training backbone on %s (%s substitute) …\n", dsNames[0], kind)
	bb := core.TrainBackbone(ds, spec, kind, subGraph, train)
	fmt.Printf("training %s rectifier on %s …\n", designs[0], dsNames[0])
	rec := core.TrainRectifier(ds, bb, core.RectifierDesign(designs[0]), train)

	cost := enclave.DefaultCostModel()
	cost.EPCBytes = cfg.epcMB << 20 // per shard: each enclave has its own EPC
	sv, err := core.DeploySharded(bb, rec, ds.Graph, cost, cfg.shards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sharded deploy failed: %v\n", err)
		os.Exit(1)
	}
	defer sv.Undeploy()

	plan := cfg.plan
	plan.Recorder = cfg.recorder
	// -chaos reports per-outage recovery times from the fault/recover
	// spans, so it gets a trace ring even when -metrics is off.
	if cfg.ring == nil && cfg.chaos > 0 {
		cfg.ring = obs.NewRing(256)
	}
	srv, err := serve.NewSharded(sv, serve.Config{
		Workers:    cfg.workers,
		MaxBatch:   cfg.batch,
		Plan:       plan,
		NodeQuery:  cfg.nq,
		Features:   ds.X,
		Deadline:   cfg.deadline,
		MaxRetries: cfg.maxRetries,
		Seed:       cfg.seed,
		Trace:      cfg.ring,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sharded serve failed: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()

	info := vaultInfo{
		ID:      dsNames[0] + "/" + designs[0],
		Dataset: dsNames[0],
		Design:  designs[0],
		Nodes:   ds.Graph.N(),
		Params:  rec.NumParams(),
	}
	st := srv.ShardStats()
	fmt.Printf("shard fleet: %d enclaves (EPC %d MB each), rows cut at %v\n",
		cfg.shards, cfg.epcMB, sv.Part.Bounds)
	for i := 0; i < st.Shards; i++ {
		fmt.Printf("  shard %d: rows %d, %.2f MB EPC used\n",
			i, sv.Part.Rows(i), float64(st.EPCUsed[i])/(1<<20))
	}

	if cfg.httpAddr != "" {
		// The API catalogs the fleet's one vault like a registry fleet
		// member; there is no registry, residency is static.
		fl := &fleet{
			vaults:      []vaultInfo{info},
			data:        map[string]*datasets.Dataset{info.Dataset: ds},
			nodeQueries: cfg.nq != nil,
		}
		api := serve.NewShardedAPI(srv, apiConfig(fl, cfg.limit, cfg.precision, cfg.ring, cfg.pprof))
		runHTTP(cfg.httpAddr, api, cfg.ring != nil, cfg.pprof)
		return
	}
	runShardedStream(cfg, srv, sv, info, ds)
}

// runShardedStream drives the synthetic client mix against the shard
// router and prints serving plus per-shard statistics. With -chaos > 0
// a seeded injector kills shards mid-stream — alternating ECALL-abort
// storms with outright enclave loss — and the report gains a recovery
// section: outage errors become expected (counted, not fatal) and the
// run ends by proving the fleet settled back to bit-identical answers.
func runShardedStream(cfg shardedServeConfig, srv *serve.ShardedServer, sv *core.ShardedVault, info vaultInfo, ds *datasets.Dataset) {
	clients, requests := cfg.clients, cfg.requests
	nodeQueries := cfg.nq != nil
	mix := ""
	if nodeQueries {
		mix = " (50% node queries)"
	}
	fmt.Printf("synthetic stream: %d clients × %d requests across %d shards%s\n",
		clients, requests, srv.Shards(), mix)
	var baseline []int
	if cfg.chaos > 0 {
		fmt.Printf("chaos: %d seeded shard kills over the stream (seed %d)\n", cfg.chaos, cfg.seed)
		var err error
		if baseline, err = srv.Predict(ds.X); err != nil {
			fmt.Fprintln(os.Stderr, "chaos baseline predict:", err)
			os.Exit(1)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	var outageErrs atomic.Uint64
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				var err error
				if nodeQueries && r%2 == 1 {
					n := info.Nodes
					seeds := [2]int{(c*131 + r*17) % n, (c*257 + r*37 + 1) % n}
					if seeds[0] == seeds[1] {
						seeds[1] = (seeds[1] + 1) % n
					}
					if _, err = srv.PredictNodes(seeds[:]); err != nil {
						err = fmt.Errorf("%s node query: %w", info.ID, err)
					}
				} else if _, err = srv.Predict(ds.X); err != nil {
					err = fmt.Errorf("%s: %w", info.ID, err)
				}
				if err != nil {
					if cfg.chaos > 0 {
						outageErrs.Add(1)
						continue
					}
					errs <- err
					return
				}
			}
		}(c)
	}
	if cfg.chaos > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed))
			for k := 0; k < cfg.chaos; k++ {
				time.Sleep(time.Duration(2+rng.Intn(8)) * time.Millisecond)
				sh := rng.Intn(sv.Shards())
				if k%2 == 0 {
					sv.Shard(sh).Enclave.SetFaultPlan(&enclave.FaultPlan{AbortRate: 1, Seed: int64(k + 1)})
					fmt.Printf("chaos: kill %d — shard %d ECALL-abort storm\n", k, sh)
				} else {
					sv.Shard(sh).Enclave.MarkLost()
					fmt.Printf("chaos: kill %d — shard %d enclave lost\n", k, sh)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fmt.Fprintln(os.Stderr, "serving error:", err)
		os.Exit(1)
	}
	wall := time.Since(start)

	if cfg.chaos > 0 {
		settleStart := time.Now()
		settled := false
		for time.Since(settleStart) < 30*time.Second {
			if labels, err := srv.Predict(ds.X); err == nil {
				if len(labels) != len(baseline) {
					fmt.Fprintln(os.Stderr, "chaos: post-recovery prediction has wrong length")
					os.Exit(1)
				}
				for i := range labels {
					if labels[i] != baseline[i] {
						fmt.Fprintf(os.Stderr, "chaos: post-recovery prediction diverged at node %d\n", i)
						os.Exit(1)
					}
				}
				settled = true
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if !settled {
			fmt.Fprintln(os.Stderr, "chaos: fleet did not settle within 30s")
			os.Exit(1)
		}
	}

	st := srv.Stats()
	sst := srv.ShardStats()
	fmt.Printf("\nserved %d requests in %v\n", st.Completed, wall.Round(time.Millisecond))
	fmt.Printf("  throughput  %.1f req/s (%.1f req/s over uptime)\n",
		float64(st.Completed)/wall.Seconds(), st.Throughput)
	fmt.Printf("  latency     p50 %v, p95 %v, p99 %v, max %v\n",
		st.P50Latency.Round(time.Microsecond), st.P95Latency.Round(time.Microsecond),
		st.P99Latency.Round(time.Microsecond), st.MaxLatency.Round(time.Microsecond))
	printEndpointLatency("predict", st.FullLatency)
	printEndpointLatency("predict_nodes", st.NodeLatency)
	fmt.Printf("  batching    %d wake-ups, %.2f requests per batch\n", st.Batches, st.AvgBatch)
	fmt.Printf("  errors      %d\n", st.Errors)
	if sst.Fanout.Count > 0 {
		fmt.Printf("  fan-out     p50 %v, p99 %v across %d shards\n",
			time.Duration(sst.Fanout.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(sst.Fanout.Quantile(0.99)).Round(time.Microsecond), sst.Shards)
	}
	var halo int64
	for i := 0; i < sst.Shards; i++ {
		halo += sst.HaloBytes[i]
		fmt.Printf("  shard %d     %.2f MB EPC used of %d MB, %.2f MB halo gathered\n",
			i, float64(sst.EPCUsed[i])/(1<<20), sst.EPCLimit[i]>>20,
			float64(sst.HaloBytes[i])/(1<<20))
	}
	fmt.Printf("  enclave     %d ECALLs, %d OCALLs, %.2f MB in, %.2f MB out, %.2f MB halo total\n",
		sst.Ledger.ECalls, sst.Ledger.OCalls, float64(sst.Ledger.BytesIn)/(1<<20),
		float64(sst.Ledger.BytesOut)/(1<<20), float64(halo)/(1<<20))
	fmt.Printf("  spill       %.2f MB streamed through untrusted scratch\n",
		float64(st.SpillBytes)/(1<<20))

	if cfg.chaos > 0 {
		fmt.Printf("\nchaos report: %d kills injected, %d requests failed during outages, "+
			"%d requests past deadline\n", cfg.chaos, outageErrs.Load(), st.DeadlineExceeded)
		breakerName := map[int32]string{0: "closed", 1: "open", 2: "half-open"}
		for i := 0; i < sst.Shards; i++ {
			fmt.Printf("  shard %d     %d restarts, breaker %s\n",
				i, sst.Restarts[i], breakerName[sst.Breaker[i]])
		}
		if cfg.ring != nil {
			for _, sp := range cfg.ring.Last(0) {
				if sp.Kind == obs.SpanRecover {
					fmt.Printf("  recovery    shard %d back in %v\n",
						sp.Rows, time.Duration(sp.Dur).Round(time.Microsecond))
				}
			}
		}
		fmt.Println("  post-recovery predictions bit-identical with pre-chaos baseline")
	}
}
