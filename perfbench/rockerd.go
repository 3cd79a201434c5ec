package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/prog"
	"repro/internal/service"
)

// The rockerd-mix traffic: per pass, mixRequests requests from
// mixClients closed-loop clients. Verify requests come from gen.Stream
// with loadgen's default share of renamed, digest-equal duplicates;
// every mixAnalyzeEvery-th request is a POST /v1/analyze of one of the
// examples/go packages instead.
const (
	mixRequests     = 2000
	mixSmoke        = 60
	mixClients      = 2
	mixDupPercent   = 30
	mixAnalyzeEvery = 20
	// mixMaxStates keeps the explorations small: a generated program the
	// oracle cannot verify within this many states (about 3% of them) is
	// left out, with its renamed duplicates. The few that explore
	// hundreds of thousands of states would otherwise set a pass's time
	// by how many of them a seed happens to draw.
	mixMaxStates = 2000
)

// mixExcluded are the examples/go packages left out of /v1/analyze:
// chaselev's fence repair alone takes about 92 s (11 ms without it).
var mixExcluded = map[string]bool{"chaselev": true}

// rockerdConfig is the configuration rockerd's flag defaults build: two
// jobs, a queue of eight, a 256-entry LRU, every core a worker per job,
// no verdict store, no cluster.
func rockerdConfig() service.Config {
	return service.Config{
		MaxJobs:        2,
		MaxQueue:       8,
		CacheSize:      256,
		DefaultTimeout: 2 * time.Minute,
		MaxTimeout:     10 * time.Minute,
		MaxStates:      8 << 20,
		StealInterval:  250 * time.Millisecond,
	}
}

// mixReq is one request of a pass with the verdicts it must get back.
type mixReq struct {
	path string // "/v1/verify" or "/v1/analyze"
	body []byte
	// src is the program or Go source; file names the Go source.
	src, file string
	// robust is a verify request's expected verdict; units are an
	// analyze request's expected per-unit RA verdicts.
	robust bool
	units  map[string]bool
}

// mixKind classifies a completed request.
type mixKind uint8

const (
	kindHit mixKind = iota
	kindMiss
	kindAnalyze
)

type mixRecord struct {
	kind  mixKind
	latMs float64
	jobMs float64 // the server's elapsedMs, on misses
}

type rockerdMix struct {
	reqs   []mixReq
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client

	// What the traced passes saw.
	recs      []mixRecord
	hitRatios []float64
	rejected  int
}

func setupRockerdMix(seed uint64, smoke bool) (runner, error) {
	n := mixRequests
	if smoke {
		n = mixSmoke
	}
	examples, err := loadExamples()
	if err != nil {
		return nil, err
	}
	reqs, err := mixRequestsFor(seed, n, examples)
	if err != nil {
		return nil, err
	}
	srv, err := service.New(rockerdConfig())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // no job was admitted
		return nil, err
	}
	r := &rockerdMix{
		reqs:   reqs,
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: mixClients}},
	}
	go func() {
		defer close(r.served)
		_ = r.hs.Serve(ln)
	}()
	if err := warmUp(r); err != nil {
		_ = r.close() // the warm-up failure is the error to report
		return nil, err
	}
	return r, nil
}

// example is one examples/go package with its expected RA verdicts.
type example struct {
	file, src string
	units     map[string]bool
}

// loadExamples reads examples/go and computes each unit's RA verdict
// in-process, as the oracle for /v1/analyze.
func loadExamples() ([]example, error) {
	dirs, err := filepath.Glob(filepath.Join("examples", "go", "*", "*.go"))
	if err != nil {
		return nil, err
	}
	var out []example
	for _, path := range dirs {
		if mixExcluded[filepath.Base(filepath.Dir(path))] {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		ex := example{file: filepath.Base(path), src: string(data), units: map[string]bool{}}
		pkg, err := frontend.TranslateSources(map[string]string{ex.file: ex.src})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, u := range pkg.Units {
			v, err := core.Verify(u.Prog, core.Options{AbstractVals: true})
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", path, u.Name, err)
			}
			ex.units[u.Name] = v.Robust
		}
		out = append(out, ex)
	}
	if len(out) == 0 {
		return nil, errors.New("no examples/go packages found; run from the repository root")
	}
	return out, nil
}

// mixRequestsFor builds the n requests of a pass. Every verify request
// expects the verdict of an in-process core.Verify, at the server's
// options, of the generator program it spells: a fresh request is
// generator program i, and a duplicate of j renames generator program j.
// That is the verdict request j got only when request j was fresh too;
// a duplicate of a duplicate renames a program never sent before.
func mixRequestsFor(seed uint64, n int, examples []example) ([]mixReq, error) {
	g := gen.New(gen.Config{Seed: seed, NoExtras: true})
	stream := gen.NewStream(g, gen.StreamConfig{Seed: seed, DupPercent: mixDupPercent})
	opts := core.Options{Model: core.ModelRA, AbstractVals: true, MaxStates: mixMaxStates, Workers: 1}
	type verdict struct{ robust, big bool }
	verdicts := map[int]verdict{} // by generator program
	verdictOf := func(k int) (verdict, error) {
		if v, ok := verdicts[k]; ok {
			return v, nil
		}
		p, err := parser.Parse(g.Source(k))
		if err != nil {
			return verdict{}, fmt.Errorf("generator program %d: %w", k, err)
		}
		v, err := core.Verify(p, opts)
		switch {
		case errors.Is(err, core.ErrStateBound):
			verdicts[k] = verdict{big: true}
		case err != nil:
			return verdict{}, fmt.Errorf("generator program %d: %w", k, err)
		default:
			verdicts[k] = verdict{robust: v.Robust}
		}
		return verdicts[k], nil
	}
	var reqs []mixReq
	for sent := 0; len(reqs) < n; sent++ {
		if len(reqs)%mixAnalyzeEvery == mixAnalyzeEvery-1 {
			ex := examples[(len(reqs)/mixAnalyzeEvery)%len(examples)]
			body, _ := json.Marshal(map[string]string{"source": ex.src, "filename": ex.file})
			reqs = append(reqs, mixReq{path: "/v1/analyze", body: body, src: ex.src, file: ex.file, units: ex.units})
		}
		src, dupOf := stream.Request(sent)
		k := sent
		if dupOf >= 0 {
			k = dupOf
		}
		v, err := verdictOf(k)
		if err != nil {
			return nil, err
		}
		if v.big {
			continue
		}
		body, _ := json.Marshal(map[string]any{"source": src, "wait": true})
		reqs = append(reqs, mixReq{path: "/v1/verify", body: body, src: src, robust: v.robust})
	}
	return reqs[:n], nil
}

type serverStats struct {
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
}

func (r *rockerdMix) stats() (serverStats, error) {
	var st serverStats
	resp, err := r.client.Get(r.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (r *rockerdMix) pass(t *tracer) passOut {
	var out passOut
	var before serverStats
	if t != nil {
		var err error
		if before, err = r.stats(); err != nil {
			out.failures = append(out.failures, fmt.Sprintf("GET /v1/stats: %v", err))
		}
	}
	type clientOut struct {
		lat      []float64
		recs     []mixRecord // the requests that succeeded
		failures []string
		rejected int
	}
	outs := make([]clientOut, mixClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(co *clientOut) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.reqs) {
					return
				}
				rec, status, err := r.send(t, i)
				co.lat = append(co.lat, rec.latMs)
				if status == http.StatusTooManyRequests {
					co.rejected++
				}
				if err != nil {
					co.failures = append(co.failures, fmt.Sprintf("request %d %s: %v", i, r.reqs[i].path, err))
				} else {
					co.recs = append(co.recs, rec)
				}
			}
		}(&outs[c])
	}
	wg.Wait()
	for _, co := range outs {
		out.lat = append(out.lat, co.lat...)
		out.ops += len(co.lat)
		out.failures = append(out.failures, co.failures...)
		if t != nil {
			r.recs = append(r.recs, co.recs...)
			r.rejected += co.rejected
		}
	}
	if t != nil {
		after, err := r.stats()
		if err != nil {
			out.failures = append(out.failures, fmt.Sprintf("GET /v1/stats: %v", err))
		} else if looks := (after.CacheHits - before.CacheHits) + (after.CacheMisses - before.CacheMisses); looks > 0 {
			r.hitRatios = append(r.hitRatios, float64(after.CacheHits-before.CacheHits)/float64(looks))
		}
	}
	return out
}

// send posts request i and checks the reply against its oracle.
func (r *rockerdMix) send(t *tracer, i int) (rec mixRecord, status int, err error) {
	q := &r.reqs[i]
	name := "service.verify"
	if q.units != nil {
		name = "service.analyze"
		rec.kind = kindAnalyze
	}
	var row string
	if t != nil {
		row = strconv.Itoa(i)
	}
	sp := t.begin(name, row, -1)
	t0 := time.Now()
	resp, err := r.client.Post(r.base+q.path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		t.end(sp)
		rec.latMs = msSince(t0)
		return rec, 0, err
	}
	defer resp.Body.Close()
	if q.units != nil {
		var ar service.AnalyzeResponse
		err = decodeReply(resp, &ar)
		rec.latMs = msSince(t0)
		t.end(sp)
		if err != nil {
			return rec, resp.StatusCode, err
		}
		return rec, resp.StatusCode, checkUnits(ar, q.units)
	}
	var vr struct {
		Cached bool   `json:"cached"`
		Status string `json:"status"`
		Result *struct {
			Robust    bool    `json:"robust"`
			ElapsedMs float64 `json:"elapsedMs"`
		} `json:"result"`
	}
	err = decodeReply(resp, &vr)
	rec.latMs = msSince(t0)
	t.end(sp)
	switch {
	case err != nil:
		return rec, resp.StatusCode, err
	case vr.Result == nil || !(vr.Cached || vr.Status == "done"):
		return rec, resp.StatusCode, fmt.Errorf("no verdict (status %q)", vr.Status)
	case vr.Result.Robust != q.robust:
		return rec, resp.StatusCode, fmt.Errorf("robust=%v, oracle says %v", vr.Result.Robust, q.robust)
	}
	if vr.Cached {
		rec.kind = kindHit
	} else {
		rec.kind = kindMiss
		rec.jobMs = vr.Result.ElapsedMs
	}
	return rec, resp.StatusCode, nil
}

// decodeReply decodes a 200 reply into v; any other status is an error.
// It reads the body to its end, so that the connection is reused.
func decodeReply(resp *http.Response, v any) error {
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func checkUnits(ar service.AnalyzeResponse, want map[string]bool) error {
	if len(ar.Units) != len(want) {
		return fmt.Errorf("%d units, oracle has %d", len(ar.Units), len(want))
	}
	for _, u := range ar.Units {
		exp, ok := want[u.Name]
		if !ok {
			return fmt.Errorf("unexpected unit %s", u.Name)
		}
		if got, ok := u.Verdicts["ra"]; !ok || got != exp {
			return fmt.Errorf("unit %s: ra verdict %v (present %v), oracle says %v", u.Name, got, ok, exp)
		}
	}
	return nil
}

// layers reports the service's split of the traced passes' latencies,
// and times the parser, the digest and the frontend on one pass's
// request inputs, outside any timed pass.
func (r *rockerdMix) layers([]*tracer) map[string]float64 {
	var hit, miss, analyze, job, overhead []float64
	for _, rec := range r.recs {
		switch rec.kind {
		case kindHit:
			hit = append(hit, rec.latMs)
		case kindMiss:
			miss = append(miss, rec.latMs)
			job = append(job, rec.jobMs)
			overhead = append(overhead, rec.latMs-rec.jobMs)
		case kindAnalyze:
			analyze = append(analyze, rec.latMs)
		}
	}
	var parseUs, digestUs, translateMs []float64
	var parseMs float64
	for _, q := range r.reqs {
		if q.units != nil {
			t0 := time.Now()
			_, _ = frontend.TranslateSources(map[string]string{q.file: q.src})
			translateMs = append(translateMs, msSince(t0))
			continue
		}
		t0 := time.Now()
		p, err := parser.Parse(q.src)
		d := msSince(t0)
		parseMs += d
		parseUs = append(parseUs, d*1000)
		if err == nil {
			t0 = time.Now()
			_ = prog.CanonicalDigest(p)
			digestUs = append(digestUs, msSince(t0)*1000)
		}
	}
	return map[string]float64{
		"service.hit_ms_p50":        median(hit),
		"service.miss_ms_p50":       median(miss),
		"service.analyze_ms_p50":    median(analyze),
		"service.job_ms_p50":        median(job),
		"service.overhead_ms_p50":   median(overhead),
		"service.hit_ratio":         median(r.hitRatios),
		"service.rejected":          float64(r.rejected),
		"parser.busy_ms":            parseMs,
		"parser.parse_us_p50":       median(parseUs),
		"prog.digest_us_p50":        median(digestUs),
		"frontend.translate_ms_p50": median(translateMs),
	}
}

// close stops the server as rockerd does on SIGTERM and waits for it.
func (r *rockerdMix) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.client.CloseIdleConnections()
	err := r.hs.Shutdown(ctx)
	<-r.served
	if derr := r.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}
