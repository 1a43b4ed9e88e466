package main

import (
	"fmt"
	"net/http"
	"os"

	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/serve"
)

// apiConfig assembles the shared serving surface (serve.API) from the
// fleet: the catalog, the per-vault feature matrices and the optional
// per-client rate limit. The HTTP handlers themselves live in
// internal/serve so that in-process clients — notably the privacy
// harness — exercise byte-identical endpoint behavior.
func apiConfig(fl *fleet, limit *serve.RateLimit, precision string, ring *obs.Ring, pprof bool) serve.APIConfig {
	vaults := make([]serve.APIVault, len(fl.vaults))
	for i, v := range fl.vaults {
		vaults[i] = serve.APIVault{
			ID:      v.ID,
			Dataset: v.Dataset,
			Design:  v.Design,
			Nodes:   v.Nodes,
			Params:  v.Params,
		}
	}
	byID := make(map[string]string, len(fl.vaults))
	for _, v := range fl.vaults {
		byID[v.ID] = v.Dataset
	}
	return serve.APIConfig{
		Vaults: vaults,
		Features: func(vaultID string) *mat.Matrix {
			ds := fl.data[byID[vaultID]]
			if ds == nil {
				return nil
			}
			return ds.X
		},
		NodeQueries: fl.nodeQueries,
		Limit:       limit,
		Precision:   precision,
		Trace:       ring,
		EnablePprof: pprof,
	}
}

// runHTTP serves a built API — over a registry fleet or a shard fleet —
// until the process is interrupted. trace and pprof say whether the
// optional debug routes are live, for the banner.
func runHTTP(addr string, api *serve.API, trace, pprof bool) {
	routes := "POST /predict, POST /predict_nodes, GET /vaults, GET /stats, GET /metrics, GET /healthz, GET /readyz"
	if trace {
		routes += ", GET /debug/trace"
	}
	if pprof {
		routes += ", GET /debug/pprof/"
	}
	fmt.Printf("HTTP API on %s: %s\n", addr, routes)
	if err := http.ListenAndServe(addr, api.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, "http server:", err)
		os.Exit(1)
	}
}
