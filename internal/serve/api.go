package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
	"gnnvault/internal/subgraph"
)

// errEmptyNodes rejects node-level queries with no seeds at the API
// surface (the in-process PredictNodes treats them as free no-ops, but a
// client sending one is malformed).
var errEmptyNodes = errors.New("serve: predict_nodes needs a non-empty \"nodes\" list")

// APIVault describes one fleet member in the API catalog. JSON tags match
// the wire format the gnnvault CLI has always served.
type APIVault struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	Design  string `json:"design"`
	Nodes   int    `json:"nodes"`
	Params  int    `json:"rectifier_params"`
}

// APIConfig wires an API front-end over a MultiServer fleet.
type APIConfig struct {
	// Vaults is the fleet catalog; requests for IDs outside it fail with
	// registry.ErrUnknownVault.
	Vaults []APIVault
	// Features resolves a vault ID to its deployed public feature matrix
	// (the full-graph query input). Required.
	Features func(vaultID string) *mat.Matrix
	// NodeQueries reports whether the fleet serves the sampled-subgraph
	// node-query path; when false, PredictNodes fails with
	// registry.ErrNodeQueriesDisabled.
	NodeQueries bool
	// Limit, when non-nil, applies a per-client token-bucket/budget rate
	// limit. Cost is counted in answered labels, so a full-graph query
	// costs the graph size and a node query its seed count — the limiter
	// prices exactly what an extraction adversary consumes.
	Limit *RateLimit
	// Precision labels every request metric with the fleet's serving
	// precision tier ("fp64", "fp32", "int8"). Empty defaults to "fp64".
	Precision string
	// Trace, when non-nil, is the flight recorder's span ring; it opens
	// the GET /debug/trace endpoint. The same ring should be wired into
	// the registry (and through it every plan) so query span trees are
	// complete.
	Trace *obs.Ring
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/. Off by
	// default: profiling endpoints on a privacy-focused serving surface
	// are opt-in.
	EnablePprof bool
}

// API is the serving surface shared by every front-end: the HTTP/JSON
// handlers and in-process clients (the privacy harness) call the same
// methods, so an attack driven through either sees byte-identical
// behavior. Client identity exists only at this layer — the worker pool
// below it has no notion of who is asking — which is why the rate limiter
// lives here.
type API struct {
	p         *pool
	shard     *ShardedServer // non-nil for a shard fleet: the shard-only /stats, /readyz and /metrics sections
	reg       *registry.Registry
	cfg       APIConfig
	lim       *limiter
	byID      map[string]*APIVault
	vm        map[string]*vaultMetrics // per-vault endpoint metrics; read-only after NewAPI
	precision string
}

// NewAPI builds the shared serving surface over a running MultiServer and
// its registry.
func NewAPI(srv *MultiServer, reg *registry.Registry, cfg APIConfig) *API {
	return newAPI(srv.p, reg, nil, cfg)
}

func newAPI(p *pool, reg *registry.Registry, shard *ShardedServer, cfg APIConfig) *API {
	a := &API{
		p:         p,
		shard:     shard,
		reg:       reg,
		cfg:       cfg,
		byID:      make(map[string]*APIVault, len(cfg.Vaults)),
		vm:        make(map[string]*vaultMetrics, len(cfg.Vaults)),
		precision: cfg.Precision,
	}
	if a.precision == "" {
		a.precision = "fp64"
	}
	for i := range cfg.Vaults {
		a.byID[cfg.Vaults[i].ID] = &cfg.Vaults[i]
		a.vm[cfg.Vaults[i].ID] = &vaultMetrics{}
	}
	if cfg.Limit != nil {
		a.lim = newLimiter(*cfg.Limit)
	}
	return a
}

// NewShardedAPI builds the same serving surface over a shard fleet: every
// endpoint, defense and metric behaves as under NewAPI, except that the
// one catalogued vault is served by the ShardedServer's fan-out router
// instead of a registry checkout, /metrics grows the per-shard families
// (halo bytes, per-shard EPC, fan-out latency), and the score surface is
// closed — sharded serving is label-only. There is no registry: residency
// is static (every shard holds its slab for the deployment's lifetime),
// so the scheduler metric families are not emitted.
func NewShardedAPI(srv *ShardedServer, cfg APIConfig) *API {
	return newAPI(srv.p, nil, srv, cfg)
}

// lookup resolves a vault ID and validates the requested node indices.
func (a *API) lookup(vault string, nodes []int) (*APIVault, error) {
	info := a.byID[vault]
	if info == nil {
		return nil, fmt.Errorf("%w: %q", registry.ErrUnknownVault, vault)
	}
	for _, n := range nodes {
		if n < 0 || n >= info.Nodes {
			return nil, fmt.Errorf("%w: node %d outside [0,%d)", core.ErrNodeOutOfRange, n, info.Nodes)
		}
	}
	return info, nil
}

// allow charges the client for cost answered labels against the
// configured rate limit, if any.
func (a *API) allow(client string, cost int) error {
	if a.lim == nil {
		return nil
	}
	return a.lim.allow(client, cost)
}

// Predict answers a full-graph label query: the exact pass over the
// vault's deployed features, with nodes selecting which labels to return
// (empty means all). The client is charged one answered label per
// returned entry.
func (a *API) Predict(client, vault string, nodes []int) ([]int, error) {
	start := time.Now()
	labels, err := a.predict(client, vault, nodes)
	a.observeReq(vault, epPredict, start, err)
	return labels, err
}

func (a *API) predict(client, vault string, nodes []int) ([]int, error) {
	info, err := a.lookup(vault, nodes)
	if err != nil {
		return nil, err
	}
	cost := len(nodes)
	if cost == 0 {
		cost = info.Nodes
	}
	if err := a.allow(client, cost); err != nil {
		return nil, err
	}
	labels, err := a.p.predict(vault, a.cfg.Features(vault))
	if err != nil {
		return nil, err
	}
	return pickInts(labels, nodes), nil
}

// PredictScores is Predict over the defended score surface: one posterior
// row and label per selected node. Fails with ErrScoresDisabled unless
// the fleet exposes scores.
func (a *API) PredictScores(client, vault string, nodes []int) ([][]float64, []int, error) {
	start := time.Now()
	scores, labels, err := a.predictScores(client, vault, nodes)
	a.observeReq(vault, epPredict, start, err)
	return scores, labels, err
}

func (a *API) predictScores(client, vault string, nodes []int) ([][]float64, []int, error) {
	info, err := a.lookup(vault, nodes)
	if err != nil {
		return nil, nil, err
	}
	cost := len(nodes)
	if cost == 0 {
		cost = info.Nodes
	}
	if err := a.allow(client, cost); err != nil {
		return nil, nil, err
	}
	scores, labels, err := a.p.predictScores(vault, a.cfg.Features(vault))
	if err != nil {
		return nil, nil, err
	}
	return pickRows(scores, nodes), pickInts(labels, nodes), nil
}

// PredictNodes answers a node-level label query through the sampled
// subgraph path: per-query cost O(hops × fanout) instead of O(graph).
func (a *API) PredictNodes(client, vault string, nodes []int) ([]int, error) {
	start := time.Now()
	labels, err := a.predictNodes(client, vault, nodes)
	a.observeReq(vault, epPredictNodes, start, err)
	return labels, err
}

func (a *API) predictNodes(client, vault string, nodes []int) ([]int, error) {
	if _, err := a.lookup(vault, nodes); err != nil {
		return nil, err
	}
	if !a.cfg.NodeQueries {
		return nil, registry.ErrNodeQueriesDisabled
	}
	if len(nodes) == 0 {
		return nil, errEmptyNodes
	}
	if err := a.allow(client, len(nodes)); err != nil {
		return nil, err
	}
	return a.p.predictNodes(vault, nodes)
}

// PredictNodesScores is PredictNodes over the defended score surface.
func (a *API) PredictNodesScores(client, vault string, nodes []int) ([][]float64, []int, error) {
	start := time.Now()
	scores, labels, err := a.predictNodesScores(client, vault, nodes)
	a.observeReq(vault, epPredictNodes, start, err)
	return scores, labels, err
}

func (a *API) predictNodesScores(client, vault string, nodes []int) ([][]float64, []int, error) {
	if _, err := a.lookup(vault, nodes); err != nil {
		return nil, nil, err
	}
	if !a.cfg.NodeQueries {
		return nil, nil, registry.ErrNodeQueriesDisabled
	}
	if len(nodes) == 0 {
		return nil, nil, errEmptyNodes
	}
	if err := a.allow(client, len(nodes)); err != nil {
		return nil, nil, err
	}
	return a.p.predictNodesScores(vault, nodes)
}

// pickInts gathers the selected entries of all, or returns all when no
// selection was made.
func pickInts(all, nodes []int) []int {
	if len(nodes) == 0 {
		return all
	}
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = all[n]
	}
	return out
}

// pickRows gathers the selected rows of all, or returns all when no
// selection was made.
func pickRows(all [][]float64, nodes []int) [][]float64 {
	if len(nodes) == 0 {
		return all
	}
	out := make([][]float64, len(nodes))
	for i, n := range nodes {
		out[i] = all[n]
	}
	return out
}

// --- HTTP front-end -------------------------------------------------------

// apiRequest is the POST /predict and /predict_nodes payload.
type apiRequest struct {
	// Vault is the fleet member to query, "dataset/design".
	Vault string `json:"vault"`
	// Nodes are the node indices whose answers to return; empty means all
	// for /predict and is rejected for /predict_nodes.
	Nodes []int `json:"nodes"`
	// Scores asks for the defended per-class posterior rows alongside
	// labels. Requires the fleet to expose scores.
	Scores bool `json:"scores"`
}

// apiResponse is the answer to both predict endpoints.
type apiResponse struct {
	Vault     string      `json:"vault"`
	Nodes     []int       `json:"nodes,omitempty"`
	Labels    []int       `json:"labels"`
	Scores    [][]float64 `json:"scores,omitempty"`
	LatencyMS float64     `json:"latency_ms"`
}

// Handler returns the HTTP/JSON front-end over the API:
//
//	POST /predict        {"vault":"cora/parallel","nodes":[0,1],"scores":false} → labels (exact, full-graph)
//	POST /predict_nodes  {"vault":"cora/parallel","nodes":[0,1],"scores":false} → labels (sampled subgraph)
//	GET  /vaults                                                               → fleet catalog
//	GET  /stats                                                                → serving + scheduler + EPC counters
//	GET  /metrics                                                              → Prometheus text exposition
//	GET  /healthz                                                              → liveness probe
//	GET  /readyz                                                               → readiness probe (503 while a shard is out)
//	GET  /debug/trace?n=K                                                      → last K flight-recorder spans as trees
//	GET  /debug/pprof/                                                         → net/http/pprof (when EnablePprof)
//
// Client identity for rate limiting is the X-Client header when present,
// else the remote address. Throttled clients get 429, score queries
// against a label-only fleet 403, unknown vaults 404, malformed or
// out-of-range queries 400, node queries on a full-graph-only fleet 501.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		a.handlePredict(w, r, a.Predict, a.PredictScores)
	})
	mux.HandleFunc("POST /predict_nodes", func(w http.ResponseWriter, r *http.Request) {
		a.handlePredict(w, r, a.PredictNodes, a.PredictNodesScores)
	})
	mux.HandleFunc("GET /vaults", a.handleVaults)
	mux.HandleFunc("GET /stats", a.handleStats)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /readyz", a.handleReadyz)
	mux.HandleFunc("GET /debug/trace", a.handleTrace)
	if a.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// clientID identifies the caller for rate limiting.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	return r.RemoteAddr
}

// handlePredict decodes one predict request and dispatches it to the
// label or score variant of the given endpoint.
func (a *API) handlePredict(w http.ResponseWriter, r *http.Request,
	labelsOf func(client, vault string, nodes []int) ([]int, error),
	scoresOf func(client, vault string, nodes []int) ([][]float64, []int, error),
) {
	var req apiRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	client := clientID(r)
	start := time.Now()
	resp := apiResponse{Vault: req.Vault, Nodes: req.Nodes}
	var err error
	if req.Scores {
		resp.Scores, resp.Labels, err = scoresOf(client, req.Vault, req.Nodes)
	} else {
		resp.Labels, err = labelsOf(client, req.Vault, req.Nodes)
	}
	if err != nil {
		httpError(w, httpStatus(err), err)
		return
	}
	resp.LatencyMS = float64(time.Since(start).Microseconds()) / 1e3
	writeJSON(w, http.StatusOK, resp)
}

func (a *API) handleVaults(w http.ResponseWriter, r *http.Request) {
	type vaultEntry struct {
		APIVault
		Resident   bool   `json:"resident"`
		Workspaces int    `json:"workspaces"`
		Requests   uint64 `json:"requests"`
		Plans      uint64 `json:"plans"`
		Evictions  uint64 `json:"evictions"`
	}
	byID := map[string]registry.VaultStats{}
	if a.reg != nil {
		rst := a.reg.Stats()
		for _, vs := range rst.PerVault {
			byID[vs.ID] = vs
		}
	}
	out := make([]vaultEntry, 0, len(a.cfg.Vaults))
	for _, info := range a.cfg.Vaults {
		vs := byID[info.ID]
		if a.reg == nil {
			// Shard fleet: no scheduler, residency is static for the
			// deployment's lifetime.
			vs.Resident = true
		}
		out = append(out, vaultEntry{
			APIVault:   info,
			Resident:   vs.Resident,
			Workspaces: vs.Workspaces,
			Requests:   vs.Requests,
			Plans:      vs.Plans,
			Evictions:  vs.Evictions,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"vaults": out})
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	st := a.p.stats()
	resp := map[string]any{
		"serving": map[string]any{
			"requests":       st.Requests,
			"completed":      st.Completed,
			"errors":         st.Errors,
			"batches":        st.Batches,
			"avg_batch":      st.AvgBatch,
			"avg_latency_ms": float64(st.AvgLatency.Microseconds()) / 1e3,
			"max_latency_ms": float64(st.MaxLatency.Microseconds()) / 1e3,
			"p50_latency_ms": float64(st.P50Latency.Microseconds()) / 1e3,
			"p95_latency_ms": float64(st.P95Latency.Microseconds()) / 1e3,
			"p99_latency_ms": float64(st.P99Latency.Microseconds()) / 1e3,
			"spill_bytes":    st.SpillBytes,
			"throughput_rps": st.Throughput,
			"uptime_s":       st.Uptime.Seconds(),
		},
	}
	if a.reg != nil {
		rst := a.reg.Stats()
		resp["scheduler"] = map[string]any{
			"vaults":    rst.Vaults,
			"resident":  rst.Resident,
			"requests":  rst.Requests,
			"plans":     rst.Plans,
			"evictions": rst.Evictions,
		}
		resp["enclave"] = map[string]any{
			"epc_used_bytes":  rst.EPCUsed,
			"epc_free_bytes":  rst.EPCFree,
			"epc_limit_bytes": rst.EPCLimit,
			"epc_used_mb":     float64(rst.EPCUsed) / (1 << 20),
			"epc_limit_mb":    float64(rst.EPCLimit) / (1 << 20),
		}
	}
	if a.shard != nil {
		sst := a.shard.ShardStats()
		var used, free, limit, halo int64
		for i := 0; i < sst.Shards; i++ {
			used += sst.EPCUsed[i]
			free += sst.EPCFree[i]
			limit += sst.EPCLimit[i]
			halo += sst.HaloBytes[i]
		}
		resp["enclave"] = map[string]any{
			"epc_used_bytes":  used,
			"epc_free_bytes":  free,
			"epc_limit_bytes": limit,
			"epc_used_mb":     float64(used) / (1 << 20),
			"epc_limit_mb":    float64(limit) / (1 << 20),
		}
		resp["shards"] = map[string]any{
			"shards":               sst.Shards,
			"available":            sst.Available,
			"halo_bytes":           sst.HaloBytes,
			"halo_bytes_total":     halo,
			"epc_used_bytes":       sst.EPCUsed,
			"epc_limit_bytes":      sst.EPCLimit,
			"fanout_p50_ms":        float64(sst.Fanout.Quantile(0.50)) / 1e6,
			"fanout_p99_ms":        float64(sst.Fanout.Quantile(0.99)) / 1e6,
			"ocalls_total":         sst.Ledger.OCalls,
			"ecall_bytes_in_total": sst.Ledger.BytesIn,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is the liveness probe: the process is up and the serving
// surface answers. It stays 200 through shard outages — degraded is not
// dead; that distinction belongs to /readyz.
func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe. A registry-backed fleet is ready
// whenever it is up (residency is the scheduler's business). A shard
// fleet is ready only when every shard admits queries: a degraded fleet
// answers 503 with Retry-After and the per-shard availability, breaker
// state and restart counts, so a load balancer drains it while node
// queries on healthy shards keep being served to whoever still asks.
func (a *API) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if a.shard == nil {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
		return
	}
	sst := a.shard.ShardStats()
	ready := true
	for _, ok := range sst.Available {
		if !ok {
			ready = false
			break
		}
	}
	body := map[string]any{
		"shards":    sst.Shards,
		"available": sst.Available,
		"breaker":   sst.Breaker,
		"restarts":  sst.Restarts,
	}
	if ready {
		body["status"] = "ready"
		writeJSON(w, http.StatusOK, body)
		return
	}
	body["status"] = "degraded"
	w.Header().Set("Retry-After", retryAfterSeconds)
	writeJSON(w, http.StatusServiceUnavailable, body)
}

// httpStatus maps an API error to its HTTP status. Client-caused errors
// are 4xx — a 503 would invite retries of requests that can never
// succeed. ErrShardUnavailable, enclave.ErrEnclaveLost and the deadline
// errors are listed explicitly even though they share the default's 503:
// each is transient server state where a retry is exactly right (a lost
// shard is being re-sealed by the recovery loop; a deadline says the
// fleet was too slow this time, not that the query is bad), and pinning
// them here keeps the sentinel→status contract under test as the default
// evolves. Every 503 and 429 carries a Retry-After header (httpError).
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShardUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, enclave.ErrEnclaveLost):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrScoresDisabled):
		return http.StatusForbidden
	case errors.Is(err, registry.ErrUnknownVault):
		return http.StatusNotFound
	case errors.Is(err, ErrNodeQueriesDisabled):
		return http.StatusNotImplemented
	case errors.Is(err, subgraph.ErrTooManySeeds),
		errors.Is(err, core.ErrNodeOutOfRange),
		errors.Is(err, errEmptyNodes):
		return http.StatusBadRequest
	default:
		return http.StatusServiceUnavailable
	}
}

// writeJSON sends one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds is the Retry-After hint attached to every throttled
// (429) and transiently failed (503) response: long enough for a breaker
// recovery round or a token refill, short enough that clients re-probe a
// recovered fleet promptly.
const retryAfterSeconds = "1"

// httpError sends a JSON error body with the given status. Retryable
// statuses (429, 503) carry a Retry-After header so well-behaved clients
// back off instead of hammering a recovering fleet.
func httpError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
