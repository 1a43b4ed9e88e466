package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/registry"
	"gnnvault/internal/subgraph"
)

// contractServer is the slice of a front-end's method set the shared
// contract script drives: the single-vault façades as they are, the
// registry façade with its one vault ID bound.
type contractServer struct {
	predict      func(x *mat.Matrix) ([]int, error)
	predictNodes func(nodes []int) ([]int, error)
	stats        func() Stats
	close        func()
}

// contractMaxSeeds is the node-query seed cap every contract backend
// serves under, small enough that the oversize query stays cheap.
const contractMaxSeeds = 4

// contractBackends starts each front-end over the same trained model:
// New over the single-enclave reference deployment, NewMulti over a
// one-entry registry and NewSharded over a fresh 2-shard fleet. cfg
// carries the pool knobs; each builder adds the node-query wiring its
// constructor needs.
func contractBackends() []struct {
	name  string
	start func(t *testing.T, cfg Config) contractServer
} {
	return []struct {
		name  string
		start func(t *testing.T, cfg Config) contractServer
	}{
		{"New", func(t *testing.T, cfg Config) contractServer {
			ds, ref, _ := testShardedVault(t)
			cfg.NodeQuery = &registry.NodeQueryConfig{MaxSeeds: contractMaxSeeds}
			cfg.Features = ds.X
			s, err := New(ref, cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			return contractServer{s.Predict, s.PredictNodes, s.Stats, s.Close}
		}},
		{"NewMulti", func(t *testing.T, cfg Config) contractServer {
			ds, _, _ := testShardedVault(t)
			encl := enclave.New(enclave.DefaultCostModel(), shardRec.Identity())
			v, err := core.DeployInto(encl, shardBB, shardRec, ds.Graph)
			if err != nil {
				t.Fatalf("DeployInto: %v", err)
			}
			t.Cleanup(v.Undeploy)
			reg := registry.New(encl, registry.Config{NodeQuery: &registry.NodeQueryConfig{MaxSeeds: contractMaxSeeds}})
			t.Cleanup(reg.Close)
			const id = "cora/parallel"
			if err := reg.Register(id, v); err != nil {
				t.Fatalf("Register: %v", err)
			}
			if err := reg.EnableNodeQueries(id, ds.X); err != nil {
				t.Fatalf("EnableNodeQueries: %v", err)
			}
			s := NewMulti(reg, cfg)
			return contractServer{
				predict:      func(x *mat.Matrix) ([]int, error) { return s.Predict(id, x) },
				predictNodes: func(nodes []int) ([]int, error) { return s.PredictNodes(id, nodes) },
				stats:        s.Stats,
				close:        s.Close,
			}
		}},
		{"NewSharded", func(t *testing.T, cfg Config) contractServer {
			ds, _, fleet := testFreshFleet(t, 2)
			cfg.NodeQuery = &registry.NodeQueryConfig{MaxSeeds: contractMaxSeeds}
			cfg.Features = ds.X
			s, err := NewSharded(fleet, cfg)
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			return contractServer{s.Predict, s.PredictNodes, s.Stats, s.Close}
		}},
	}
}

// TestServingContractEveryBackend runs one sequential script against
// every front-end: full-graph and single-request node-query labels are
// bit-identical across them, the node-query error surfaces are the same
// sentinels, an empty query is a free no-op, a closed server refuses
// work, and the pool's accounting reconciles.
func TestServingContractEveryBackend(t *testing.T) {
	ds, ref, _ := testShardedVault(t)
	want, _, err := ref.Predict(ds.X)
	if err != nil {
		t.Fatalf("reference Predict: %v", err)
	}
	n := ref.Nodes()
	seedSets := [][]int{{0}, {n - 1}, {n / 2, n/2 + 1}, {1, n - 2, n / 3}}
	var wantNodes [][]int // the first backend's answers, the others must match
	for _, b := range contractBackends() {
		t.Run(b.name, func(t *testing.T) {
			s := b.start(t, Config{Workers: 2})
			defer s.close()

			got, err := s.predict(ds.X)
			if err != nil {
				t.Fatalf("Predict: %v", err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("label[%d] = %d, want %d", i, got[i], want[i])
				}
			}
			for k, seeds := range seedSets {
				got, err := s.predictNodes(seeds)
				if err != nil {
					t.Fatalf("PredictNodes(%v): %v", seeds, err)
				}
				if len(wantNodes) <= k {
					wantNodes = append(wantNodes, got)
					continue
				}
				for i := range got {
					if got[i] != wantNodes[k][i] {
						t.Fatalf("PredictNodes(%v)[%d] = %d, want %d", seeds, i, got[i], wantNodes[k][i])
					}
				}
			}

			if _, err := s.predictNodes([]int{n}); !errors.Is(err, core.ErrNodeOutOfRange) {
				t.Fatalf("out-of-range seed: %v, want core.ErrNodeOutOfRange", err)
			}
			tooMany := make([]int, contractMaxSeeds+1)
			for i := range tooMany {
				tooMany[i] = i + 1
			}
			if _, err := s.predictNodes(tooMany); !errors.Is(err, subgraph.ErrTooManySeeds) {
				t.Fatalf("%d distinct seeds: %v, want subgraph.ErrTooManySeeds", len(tooMany), err)
			}
			if out, err := s.predictNodes([]int{}); err != nil || len(out) != 0 {
				t.Fatalf("empty query: out=%v err=%v, want empty answer and no error", out, err)
			}

			st := s.stats()
			if st.Requests != st.Completed+st.Errors {
				t.Fatalf("counters do not reconcile: %d requests, %d completed + %d errors", st.Requests, st.Completed, st.Errors)
			}
			if st.Errors != 2 {
				t.Fatalf("Errors = %d, want 2 (out-of-range and oversize queries)", st.Errors)
			}

			s.close()
			if _, err := s.predict(ds.X); !errors.Is(err, ErrClosed) {
				t.Fatalf("Predict after Close: %v, want ErrClosed", err)
			}
			if _, err := s.predictNodes([]int{0}); !errors.Is(err, ErrClosed) {
				t.Fatalf("PredictNodes after Close: %v, want ErrClosed", err)
			}
		})
	}
}

// TestDeadlineEveryBackend runs TestShardedDeadline's script against the
// single-vault and registry front-ends: Config.Deadline is honoured by
// the shared pool, so under a deadline no request can meet both
// endpoints fail with context.DeadlineExceeded, the deadline counter
// counts them, and the accounting reconciles.
func TestDeadlineEveryBackend(t *testing.T) {
	ds, _, _ := testShardedVault(t)
	for _, b := range contractBackends()[:2] {
		t.Run(b.name, func(t *testing.T) {
			s := b.start(t, Config{Workers: 2, Deadline: time.Nanosecond})
			defer s.close()
			if _, err := s.predict(ds.X); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Predict under 1ns deadline: %v, want DeadlineExceeded", err)
			}
			if _, err := s.predictNodes([]int{0}); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("PredictNodes under 1ns deadline: %v, want DeadlineExceeded", err)
			}
			st := s.stats()
			if st.DeadlineExceeded != 2 {
				t.Fatalf("DeadlineExceeded = %d, want 2", st.DeadlineExceeded)
			}
			if st.Requests != st.Completed+st.Errors {
				t.Fatalf("counters do not reconcile: %d requests, %d completed + %d errors", st.Requests, st.Completed, st.Errors)
			}
		})
	}
}
