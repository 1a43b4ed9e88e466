package main

import "gnnvault/internal/obs"

// layerMetrics fills the per-layer ledger: counter deltas over the load
// phase (before → after), self times and probes from the traced replay,
// and the program's own plan and op spans from its ring.
func layerMetrics(m map[string]metric, workload string, st *replayStats, load loadResult,
	before, after counters, s *stack, rec *switchRecorder, setupPlans []obs.Span) {
	req := float64(max(load.Succeeded, 1))
	self := layerSelf(st.tr.spans)
	selfMS := func(name string) float64 {
		var xs []float64
		for _, ns := range self[name] {
			xs = append(xs, float64(ns)/1e6)
		}
		return orZero(xs)
	}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	sv := after.serve
	batches := float64(sv.Batches - before.serve.Batches)
	answered := float64(sv.Completed + sv.Errors - before.serve.Completed - before.serve.Errors)
	put("serve.http_ms", selfMS("http"), "ms")
	put("serve.queue_wait_ms", selfMS("serve"), "ms")
	put("serve.avg_batch", answered/max(batches, 1), "count")
	put("serve.alloc_kb_per_req", float64(after.alloc-before.alloc)/1024/req, "KB")
	fanout := 0.0
	if n := after.fanout.Count - before.fanout.Count; n > 0 {
		fanout = float64(after.fanout.Sum-before.fanout.Sum) / float64(n) / 1e6
	}
	put("serve.fanout_ms", fanout, "ms")

	hit, evict := 0.0, 0.0
	if n := float64(after.reg.Requests - before.reg.Requests); n > 0 {
		hit = (n - float64(after.reg.Plans-before.reg.Plans)) / n
		evict = float64(after.reg.Evictions-before.reg.Evictions) / n
	}
	put("registry.hit_ratio", hit, "ratio")
	put("registry.evictions_per_req", evict, "count")
	put("registry.acquire_hit_us", orZero(st.acquireHitUS), "us")
	put("registry.acquire_miss_ms", orZero(st.acquireMissM), "ms")

	plans := append(setupPlans, programSpans(rec.ring, obs.SpanPlan)...)
	var planMS []float64
	for _, p := range plans {
		planMS = append(planMS, float64(p.Dur)/1e6)
	}
	if s.shardPlanMS > 0 {
		planMS = append(planMS, s.shardPlanMS)
	}
	put("core.backbone_ms", orZero(st.backboneMS), "ms")
	put("core.enclave_ms", orZero(st.enclaveMS), "ms")
	put("core.plan_ms", orZero(planMS), "ms")

	put("subgraph.expand_us", orZero(st.expandUS), "us")
	put("subgraph.induce_us", orZero(st.induceUS), "us")
	put("subgraph.extracted_nodes", orZero(st.extracted), "count")

	l0, l1 := before.ledger, after.ledger
	put("enclave.ecalls_per_req", float64(l1.ECalls-l0.ECalls)/req, "count")
	put("enclave.bytes_in_kb_per_req", float64(l1.BytesIn-l0.BytesIn)/1024/req, "KB")
	put("enclave.page_swaps_per_req", float64(l1.PageSwaps-l0.PageSwaps)/req, "count")

	put("exec.halo_mb_per_req", float64(after.halo-before.halo)/(1<<20)/req, "MB")
	put("exec.spill_mb_per_req", float64(sv.SpillBytes-before.serve.SpillBytes)/(1<<20)/req, "MB")
	put("exec.tile_rows", float64(s.plan.TileRows), "count")
	put("exec.tile_workers", float64(s.plan.TileWorkers), "count")

	put("mat.matmul_fp64_gflops", st.kt.rate(famMatMulFP64, false), "Gop/s")
	put("mat.matmul_int8_gops", st.kt.rate(famMatMulInt8, false), "Gop/s")
	put("graph.spmm_fp64_gbs", st.kt.rate(famSpMMFP64, true), "GB/s")
	put("graph.spmm_int8_gbs", st.kt.rate(famSpMMInt8, true), "GB/s")

	late := 0.0
	if workload == wNode {
		late = mean(load.lateMS)
	}
	put("loadgen.late_ms", late, "ms")
	var traced []float64
	for _, sp := range st.tr.spans {
		if sp.Parent == 0 {
			traced = append(traced, float64(sp.dur())/1e6)
		}
	}
	base := median(st.untracedHTTP)
	put("trace.overhead_pct", (median(traced)-base)/base*100, "%")
	put("trace.coverage", coverage(st.tr.spans), "ratio")
}

// layerSummary is the median self time per layer, in ms, for the report.
func layerSummary(spans []span) map[string]float64 {
	out := map[string]float64{}
	for name, byReq := range layerSelf(spans) {
		var xs []float64
		for _, ns := range byReq {
			xs = append(xs, float64(ns)/1e6)
		}
		out[name] = median(xs)
	}
	return out
}

// orZero is the median of xs, or 0 for a layer the workload never
// reached.
func orZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
