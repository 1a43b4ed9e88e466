package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gnnvault/internal/enclave"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
	"gnnvault/internal/serve"
)

// client speaks the serving API's JSON wire format over a bounded pool
// of keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome classifies one answered request.
type outcome int

const (
	okAnswer outcome = iota
	failedAnswer
	refusedAnswer // 429 or 503: the server declined to answer
	wrongAnswer   // answered, but the correctness gate rejected the labels
)

// do sends one request and returns the labels, or the outcome that
// replaced them.
func (c *client) do(r request) ([]int, outcome, error) {
	resp, err := c.hc.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, failedAnswer, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status already says it failed
		o := failedAnswer
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			o = refusedAnswer
		}
		return nil, o, fmt.Errorf("%s %s: HTTP %d: %s", r.path, r.vault, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out struct {
		Labels []int `json:"labels"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, failedAnswer, fmt.Errorf("decoding %s answer: %w", r.path, err)
	}
	return out.Labels, okAnswer, nil
}

// phase counts one phase's requests: sent, succeeded, failed (including
// wrong answers) and refused.
type phase struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Refused   int `json:"refused"`
	Wrong     int `json:"wrong"`
}

func (p *phase) note(o outcome) {
	p.Sent++
	switch o {
	case okAnswer:
		p.Succeeded++
	case refusedAnswer:
		p.Refused++
	case wrongAnswer:
		p.Wrong++
		p.Failed++
	default:
		p.Failed++
	}
}

// loadResult is what one timed load phase measured.
type loadResult struct {
	phase
	wall      time.Duration
	latencyMS []float64 // per request; failed and refused requests are +Inf
	startS    []float64 // per request, aligned with latencyMS: when it was due (open loop) or sent (closed), s from the phase start
	lateMS    []float64 // open loop: how late each request was sent
	firstErr  error
}

// record is one finished request of the load phase.
type record struct {
	start   time.Duration // from the phase start: due time (open loop) or send time (closed)
	latency time.Duration
	late    time.Duration
	o       outcome
	err     error
}

// closedLoop runs clients goroutines, each sending its next request only
// after the previous one answered, until d has passed.
func closedLoop(c *client, clients int, d time.Duration, next func() request, check func(request, []int) error) loadResult {
	var mu sync.Mutex
	var recs []record
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				r := next()
				mu.Unlock()
				t0 := time.Now()
				labels, o, err := c.do(r)
				lat := time.Since(t0)
				if o == okAnswer {
					if err = check(r, labels); err != nil {
						o = wrongAnswer
					}
				}
				mu.Lock()
				recs = append(recs, record{start: t0.Sub(start), latency: lat, o: o, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return summarize(recs, time.Since(start))
}

// openLoop sends reqs on the given schedule (offsets in seconds from the
// start) over conns sender goroutines, one per keep-alive connection. A
// request is sent at its due time or, when every sender is busy, as soon
// as one frees up; its latency counts from its due time, so a stall
// charges the wait it imposes on every later request.
func openLoop(c *client, conns int, due []float64, reqs []request, check func(request, []int) error) loadResult {
	recs := make([]record, len(due))
	var idx atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(idx.Add(1) - 1)
				if j >= len(due) {
					return
				}
				at := start.Add(time.Duration(due[j] * float64(time.Second)))
				if w := time.Until(at); w > 0 {
					time.Sleep(w)
				}
				sent := time.Now()
				labels, o, err := c.do(reqs[j])
				if o == okAnswer {
					if err = check(reqs[j], labels); err != nil {
						o = wrongAnswer
					}
				}
				recs[j] = record{start: at.Sub(start), latency: time.Since(at), late: sent.Sub(at), o: o, err: err}
			}
		}()
	}
	wg.Wait()
	res := summarize(recs, time.Since(start))
	for _, r := range recs {
		res.lateMS = append(res.lateMS, ms(r.late))
	}
	return res
}

func summarize(recs []record, wall time.Duration) loadResult {
	res := loadResult{wall: wall}
	for _, r := range recs {
		res.note(r.o)
		res.startS = append(res.startS, r.start.Seconds())
		if r.o == okAnswer {
			res.latencyMS = append(res.latencyMS, ms(r.latency))
		} else {
			res.latencyMS = append(res.latencyMS, math.Inf(1))
			if res.firstErr == nil {
				res.firstErr = r.err
			}
		}
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// counters is a snapshot of every counter the program already exposes,
// taken before and after a phase so the phase's deltas are attributable.
type counters struct {
	serve  serve.Stats
	reg    registry.Stats
	ledger enclave.Ledger
	halo   int64
	fanout obs.HistSnapshot
	alloc  uint64
}

func (s *stack) snapshot() counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc = ms.TotalAlloc
	if s.shard != nil {
		c.serve = s.shard.Stats()
		st := s.shard.ShardStats()
		c.ledger = st.Ledger
		c.fanout = st.Fanout
		for _, h := range st.HaloBytes {
			c.halo += h
		}
		return c
	}
	c.serve = s.multi.Stats()
	c.reg = s.reg.Stats()
	c.ledger = c.reg.Ledger
	return c
}

// epcUsed returns the modelled EPC in use on the busiest enclave.
func (s *stack) epcUsed() int64 {
	if s.shard != nil {
		var peak int64
		for _, u := range s.shard.ShardStats().EPCUsed {
			peak = max(peak, u)
		}
		return peak
	}
	return s.encl.EPCUsed()
}

// epcSampler polls the busiest enclave's EPC occupancy until stopped and
// keeps the peak.
type epcSampler struct {
	peak atomic.Int64
	stop chan struct{}
	done chan struct{}
}

func sampleEPC(s *stack, every time.Duration) *epcSampler {
	e := &epcSampler{stop: make(chan struct{}), done: make(chan struct{})}
	e.peak.Store(s.epcUsed())
	go func() {
		defer close(e.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				if u := s.epcUsed(); u > e.peak.Load() {
					e.peak.Store(u)
				}
			}
		}
	}()
	return e
}

// finish stops the sampler, waits for it, and returns the peak in bytes.
func (e *epcSampler) finish() int64 {
	close(e.stop)
	<-e.done
	return e.peak.Load()
}
