package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/graph"
	"gnnvault/internal/hostcpu"
	"gnnvault/internal/substitute"
)

// The golden digests below pin the exact bits the dense and sparse
// kernels produce end to end: training (whose forward and backward
// passes run on the same axpy kernels), deployment, planning and
// inference. A kernel rewrite that changes a single rounding anywhere in
// that chain changes a digest. They were recorded with the pure-Go
// kernels and must not be edited to absorb a kernel change — a faster
// body has to reproduce these bits, not new ones.
var goldenFP64 = map[string]string{
	"cora/parallel":     "41476682bb2f5a37aff02a14cd969c62b5e7918e8f2bf6d4ff131506f96c673c",
	"cora/series":       "4bd5345c13fa1f82cb5f4d10ef75831da82ac23ab7f7b5135bd7513c4ef53790",
	"cora/cascaded":     "f9a70defbc8f5e3a94484c74f7e716fd8e4523fae33c74d5f6092935868fc37a",
	"citeseer/parallel": "126c7946ef96ff34ce0e500b3b96bc7149d9986dc5e684f1d3202972cc6d63ac",
	"citeseer/series":   "1a720eecec1b1c4708d52f75eca22c209a1af438376473010d9f9a8dc11c06dd",
	"citeseer/cascaded": "b2ac4e35a63c794c0de47bd00f9349a0e6840d0d9085e94fa82224c881294fb3",
	"pubmed/parallel":   "00646cc53523ba49ac87603ee7ffc4ccbc4c43f2bb0c75a8abddf3c2b831bec9",
	"pubmed/series":     "2f52cab32f5923bc138b87aa87fe0a55afff0c55fd0afbd66eefa6c142d7b288",
	"pubmed/cascaded":   "978e6132f1a8096ef325ee3f3d36be88b7ba80e416c92d7bb0442f73e2ddec8c",
}

const goldenShardInt8 = "36dff31e87b2612b704f88e51be503ee5f5874042dae8ea44243590a437e2c91"

// skipUnlessGoldenPlatform skips where the digests cannot hold. Off
// amd64 the Go spec lets the backend fuse x*y+z into one FMA (arm64,
// ppc64le and s390x do), which rounds once instead of twice and so
// legitimately yields other bits from the same pure-Go kernels. On amd64
// the digests were recorded on a host with AVX and FMA, where math.Exp —
// which training runs through the softmax loss — evaluates its
// polynomial with fused multiply-adds; a host without them takes
// math.Exp's unfused path, whose last bits differ.
func skipUnlessGoldenPlatform(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded for amd64; %s may fuse multiply-adds into FMAs and round differently", runtime.GOARCH)
	}
	if !hostcpu.FMA {
		t.Skip("golden digests are recorded on an AVX+FMA host; without FMA math.Exp takes its unfused path and training rounds differently")
	}
}

func goldenTrain() TrainConfig {
	return TrainConfig{Epochs: 8, LR: 0.01, WeightDecay: 5e-4, Seed: 13}
}

func hashFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func hashLabels(h hash.Hash, labels []int) {
	var b [8]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
}

// TestGoldenFP64PredictBits trains one small vault per Table I stand-in ×
// rectifier design and pins the SHA-256 of its fp64 PredictInto output:
// every bit of the rectified scores, then the labels.
func TestGoldenFP64PredictBits(t *testing.T) {
	skipUnlessGoldenPlatform(t)
	for _, name := range []string{"cora", "citeseer", "pubmed"} {
		ds := datasets.Load(name)
		bb := TrainBackbone(ds, SpecForDataset(name), substitute.KindKNN, substitute.KNN(ds.X, 2), goldenTrain())
		for _, design := range []RectifierDesign{Parallel, Series, Cascaded} {
			key := name + "/" + string(design)
			rec := TrainRectifier(ds, bb, design, goldenTrain())
			v, err := Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
			if err != nil {
				t.Fatalf("%s: deploy: %v", key, err)
			}
			ws, err := v.Plan(ds.X.Rows)
			if err != nil {
				t.Fatalf("%s: plan: %v", key, err)
			}
			scores, labels, _, err := v.PredictScoresInto(ds.X, ws)
			if err != nil {
				t.Fatalf("%s: predict: %v", key, err)
			}
			h := sha256.New()
			hashFloats(h, scores.Data)
			hashLabels(h, labels)
			if got := hex.EncodeToString(h.Sum(nil)); got != goldenFP64[key] {
				t.Errorf("%s: fp64 output digest %s, golden %s", key, got, goldenFP64[key])
			}
			ws.Release()
			v.Undeploy()
		}
	}
}

// TestGoldenShardInt8Labels pins the labels of a 4-shard power-law vault
// served at int8. The int8 plan is calibrated from fp64 activations, so
// the digest covers the fp64 kernels (training and calibration), the
// quantised kernels, and the fleet's fan-out and halo exchange.
func TestGoldenShardInt8Labels(t *testing.T) {
	skipUnlessGoldenPlatform(t)
	const nodes = 3000
	ds := datasets.GeneratePowerLaw(datasets.PowerLawConfig{Nodes: nodes, Seed: 5})
	sub := graph.PreferentialAttachment(graph.PreferentialAttachmentConfig{Nodes: nodes, EdgesPerNode: 8, Seed: 1004})
	spec := ModelSpec{Name: "golden-pl", BackboneHidden: []int{64, 32}, RectifierHidden: []int{32, 16}}
	bb := TrainBackbone(ds, spec, substitute.KindRandom, sub, goldenTrain())
	rec := TrainRectifier(ds, bb, Series, goldenTrain())
	sv, err := DeploySharded(bb, rec, ds.Graph, enclave.DefaultCostModel(), 4)
	if err != nil {
		t.Fatalf("deploy sharded: %v", err)
	}
	defer sv.Undeploy()
	if err := sv.SetCalibrationFeatures(ds.X); err != nil {
		t.Fatalf("calibration features: %v", err)
	}
	ws, err := sv.PlanSharded(nodes, PlanConfig{EPCBudgetBytes: 1 << 20, Precision: PrecisionInt8, MinAgreement: 0.5})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	defer ws.Release()
	labels, _, err := sv.PredictInto(ds.X, ws)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	h := sha256.New()
	hashLabels(h, labels)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenShardInt8 {
		t.Errorf("int8 sharded label digest %s, golden %s", got, goldenShardInt8)
	}
}
