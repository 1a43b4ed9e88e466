package serve

import (
	"gnnvault/internal/mat"
	"gnnvault/internal/registry"
)

// MultiServer routes label queries across a fleet of vaults sharing one
// enclave. Workers pull requests off a single bounded queue and check
// workspaces out of a registry.Registry once per same-vault run, so which
// vaults hold EPC at any moment follows the traffic: hot vaults keep
// cached workspaces (and stay on the allocation-free path), cold vaults
// pay a plan — and possibly evict an idle tenant — on their next request.
// The registry's Stats expose that churn.
type MultiServer struct{ p *pool }

// NewMulti starts a worker pool over the registry's vault fleet. Unlike
// New, nothing is planned up front: workspace residency is entirely
// demand-driven, so a fleet larger than the EPC starts instantly and pages
// vaults in as traffic arrives. The caller keeps ownership of the
// registry; Close stops the workers without closing it.
func NewMulti(reg *registry.Registry, cfg Config) *MultiServer {
	cfg = cfg.withDefaults()
	lanes := make([]lane, cfg.Workers)
	for i := range lanes {
		lanes[i] = &vaultLane{reg: reg}
	}
	// Whether a vault serves node queries is the registry's call, made
	// per vault at checkout.
	return &MultiServer{newPool(cfg, true, lanes, nil)}
}

// Predict enqueues one inference over x for the vault registered under
// vaultID and blocks until a worker answers. The returned slice is freshly
// allocated and owned by the caller. Safe for concurrent use; blocks for
// backpressure when the queue is full. Unknown vault IDs surface as
// registry.ErrUnknownVault.
func (s *MultiServer) Predict(vaultID string, x *mat.Matrix) ([]int, error) {
	return s.p.predict(vaultID, x)
}

// PredictScores enqueues one inference over x for the vault registered
// under vaultID and blocks until a worker answers with the defended
// per-class posterior row and label for every input row. Fails with
// ErrScoresDisabled unless the server was started with
// Config.ExposeScores. Returned slices are freshly allocated and owned by
// the caller.
func (s *MultiServer) PredictScores(vaultID string, x *mat.Matrix) ([][]float64, []int, error) {
	return s.p.predictScores(vaultID, x)
}

// PredictNodesScores is PredictNodes for fleets exposing scores: one
// defended posterior row and label per requested node, served through the
// same coalesced subgraph extractions. Fails with ErrScoresDisabled
// unless the server was started with Config.ExposeScores.
func (s *MultiServer) PredictNodesScores(vaultID string, nodes []int) ([][]float64, []int, error) {
	return s.p.predictNodesScores(vaultID, nodes)
}

// PredictNodes enqueues one node-level query for the vault registered
// under vaultID and blocks until a worker answers with one label per
// requested node. The registry must be configured for node queries and
// the vault enabled via registry.EnableNodeQueries; otherwise the request
// fails with registry.ErrNodeQueriesDisabled. Consecutive same-vault node
// queries drained in one worker wake-up are coalesced into shared
// subgraph extractions. nodes must not be mutated until PredictNodes
// returns; the returned slice is freshly allocated and owned by the
// caller.
func (s *MultiServer) PredictNodes(vaultID string, nodes []int) ([]int, error) {
	return s.p.predictNodes(vaultID, nodes)
}

// Stats returns a snapshot of the serving counters. Scheduler-side
// counters (plans, evictions, per-vault residency) live in the registry's
// own Stats.
func (s *MultiServer) Stats() Stats { return s.p.stats() }

// Close stops accepting requests and waits for queued work to finish.
// Workspace EPC is returned to the registry as each in-flight checkout is
// released; the registry itself (and the deployed vaults) remain usable.
// Idempotent.
func (s *MultiServer) Close() { s.p.close() }
