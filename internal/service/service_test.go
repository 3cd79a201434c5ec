package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/litmus"
	"repro/internal/service"
)

// sbVariant is the corpus SB program rewritten with different thread,
// register and label spelling, extra comments, and shuffled whitespace —
// digest-equal to litmus "SB", so the second submission must hit the
// verdict cache.
const sbVariant = `
# store buffering, renamed
program store-buffer
vals 2
locs x y

thread left
top:
	x := 1
	readY := y   // read after write
end

thread right
	y := 1
	readX := x
end
`

func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil && !errors.Is(err, service.ErrDrainTimeout) {
			t.Errorf("drain: %v", err)
		}
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, req service.VerifyRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func corpusSource(t *testing.T, name string) string {
	t.Helper()
	e, err := litmus.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return e.Source
}

// TestVerifyEndToEnd runs the e2e smoke from the acceptance criteria: SB
// is non-robust, MP is robust, and an SB resubmission — rewritten modulo
// names and whitespace — is served from the cache.
func TestVerifyEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 2, Workers: 2})

	verify := func(src string) (int, service.Snapshot) {
		resp, body := postJSON(t, ts.URL, service.VerifyRequest{Source: src, Wait: true})
		var snap service.Snapshot
		if resp.StatusCode == http.StatusOK && json.Unmarshal(body, &snap) != nil {
			t.Fatalf("bad body: %s", body)
		}
		return resp.StatusCode, snap
	}

	if code, snap := verify(corpusSource(t, "SB")); code != http.StatusOK ||
		snap.Status != service.StatusDone || snap.Result == nil || snap.Result.Robust {
		t.Fatalf("SB: code=%d snapshot=%+v, want done and not robust", code, snap)
	}
	if code, snap := verify(corpusSource(t, "MP")); code != http.StatusOK ||
		snap.Status != service.StatusDone || snap.Result == nil || !snap.Result.Robust {
		t.Fatalf("MP: code=%d snapshot=%+v, want done and robust", code, snap)
	}

	// The rewritten SB must short-circuit through the verdict cache.
	resp, body := postJSON(t, ts.URL, service.VerifyRequest{Source: sbVariant, Wait: true})
	var cached struct {
		Cached bool            `json:"cached"`
		Result *service.Result `json:"result"`
	}
	if err := json.Unmarshal(body, &cached); err != nil {
		t.Fatalf("bad body: %s", body)
	}
	if resp.StatusCode != http.StatusOK || !cached.Cached || cached.Result == nil || cached.Result.Robust {
		t.Fatalf("SB variant: code=%d body=%s, want cached non-robust verdict", resp.StatusCode, body)
	}
}

// TestStaticPruneOption exercises the staticPrune request knob: a
// conflict-free program is discharged by the static certificate with zero
// states, the verdict matches the unpruned run, and the two runs memoize
// under distinct cache keys (their state counts differ, so sharing a key
// would serve the wrong numbers).
func TestStaticPruneOption(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 2, Workers: 2})

	verify := func(src string, prune bool) *service.Result {
		resp, body := postJSON(t, ts.URL, service.VerifyRequest{Source: src, Wait: true, StaticPrune: prune})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("code=%d body=%s", resp.StatusCode, body)
		}
		var snap service.Snapshot
		if err := json.Unmarshal(body, &snap); err == nil && snap.Result != nil {
			return snap.Result
		}
		// Cached responses have a different envelope.
		var cached struct {
			Result *service.Result `json:"result"`
		}
		if err := json.Unmarshal(body, &cached); err != nil || cached.Result == nil {
			t.Fatalf("bad body: %s", body)
		}
		return cached.Result
	}

	src := corpusSource(t, "CoRR")
	base := verify(src, false)
	if !base.Robust || base.Certificate || base.States == 0 {
		t.Fatalf("unpruned CoRR: %+v, want robust via exploration", base)
	}
	pruned := verify(src, true)
	if !pruned.Robust || !pruned.Certificate || pruned.States != 0 {
		t.Fatalf("pruned CoRR: %+v, want static certificate with 0 states", pruned)
	}

	// Re-submitting the unpruned request must still see the exploration
	// numbers, not the certificate result.
	again := verify(src, false)
	if again.Certificate || again.States != base.States {
		t.Fatalf("unpruned resubmission: %+v, want the cached exploration result %+v", again, base)
	}
}

// TestStateModes exercises the state-robustness engines through the
// service: SB reaches SC-unreachable program states under both RA and
// TSO; MP does not.
func TestStateModes(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 2, Workers: 2})
	cases := []struct {
		prog, mode string
		robust     bool
	}{
		{"SB", service.ModeStateRA, false},
		{"SB", service.ModeStateTSO, false},
		{"MP", service.ModeStateRA, true},
		{"MP", service.ModeStateTSO, true},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL, service.VerifyRequest{
			Source: corpusSource(t, c.prog), Mode: c.mode, Wait: true,
		})
		var snap service.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("%s/%s: bad body %s", c.prog, c.mode, body)
		}
		if resp.StatusCode != http.StatusOK || snap.Status != service.StatusDone ||
			snap.Result == nil || snap.Result.Robust != c.robust {
			t.Errorf("%s/%s: code=%d snapshot=%+v, want robust=%v",
				c.prog, c.mode, resp.StatusCode, snap, c.robust)
		}
	}
}

// TestParseError400 checks that malformed programs come back as 400 with
// the structured line:column position.
func TestParseError400(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	resp, body := postJSON(t, ts.URL, service.VerifyRequest{
		Source: "vals 4\nlocs x\nthread p\n  r0 := 1 | 2\nend\n",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("code = %d, want 400 (%s)", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
		Line  int    `json:"line"`
		Col   int    `json:"col"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Line != 4 || e.Col != 11 || e.Error == "" {
		t.Errorf("error = %+v, want position 4:11", e)
	}
}

// bigSource is a Figure-7 row whose state space runs for minutes — a job
// that is reliably still in flight when the tests cancel, delete, or
// saturate around it.
func bigSource(t *testing.T) string { return corpusSource(t, "lamport2-3-ra") }

// submitAsync posts without Wait and returns the job id from the 202.
func submitAsync(t *testing.T, url string, req service.VerifyRequest) string {
	t.Helper()
	resp, body := postJSON(t, url, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("code = %d, want 202 (%s)", resp.StatusCode, body)
	}
	var snap service.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.Status == "" {
		t.Fatalf("bad snapshot %s", body)
	}
	return snap.ID
}

func getSnapshot(t *testing.T, url, id string) service.Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap service.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func waitStatus(t *testing.T, url, id string, want ...string) service.Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := getSnapshot(t, url, id)
		for _, w := range want {
			if snap.Status == w {
				return snap
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %q, want one of %v", id, snap.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmission429 saturates a 1-worker, 1-slot queue and checks the
// third concurrent submission is rejected with 429 and a Retry-After
// hint while the first two survive.
func TestAdmission429(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 1, MaxQueue: 1, Workers: 1})
	big := bigSource(t)
	// The three sources are digest-equal (comments are discarded), but
	// that cannot short-circuit admission: only completed verdicts enter
	// the cache, and none of these jobs ever finishes.
	id1 := submitAsync(t, ts.URL, service.VerifyRequest{Source: big + "# v1\n"})
	waitStatus(t, ts.URL, id1, service.StatusRunning)
	id2 := submitAsync(t, ts.URL, service.VerifyRequest{Source: big + "# v2\n"})

	resp, body := postJSON(t, ts.URL, service.VerifyRequest{Source: big + "# v3\n"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission: code = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}

	for _, id := range []string{id1, id2} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		}
		waitStatus(t, ts.URL, id, service.StatusCanceled)
	}
}

// TestDeadlineCanceled submits a long job with a tiny deadline and checks
// it lands on status canceled — never a verdict.
func TestDeadlineCanceled(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 1, Workers: 2})
	resp, body := postJSON(t, ts.URL, service.VerifyRequest{
		Source: bigSource(t), TimeoutMs: 100, Wait: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code = %d (%s)", resp.StatusCode, body)
	}
	var snap service.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Status != service.StatusCanceled || snap.Result != nil {
		t.Fatalf("snapshot = %+v, want canceled with no result", snap)
	}
	if !strings.Contains(snap.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", snap.Error)
	}
}

// TestDeleteCancelsRunning checks DELETE against a running job: prompt
// cancellation, terminal status canceled, and no verdict.
func TestDeleteCancelsRunning(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 1, Workers: 2})
	id := submitAsync(t, ts.URL, service.VerifyRequest{Source: bigSource(t)})
	waitStatus(t, ts.URL, id, service.StatusRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	snap := waitStatus(t, ts.URL, id, service.StatusCanceled)
	if snap.Result != nil {
		t.Fatalf("canceled job carries a result: %+v", snap)
	}
}

// TestStream reads the NDJSON progress stream of a long job, cancels it
// mid-stream, and checks the lines are well-formed, progress advances,
// and the final line is terminal.
func TestStream(t *testing.T) {
	_, ts := newTestServer(t, service.Config{
		MaxJobs: 1, Workers: 2, StreamInterval: 5 * time.Millisecond,
	})
	id := submitAsync(t, ts.URL, service.VerifyRequest{Source: bigSource(t)})
	waitStatus(t, ts.URL, id, service.StatusRunning)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []service.Snapshot
	for sc.Scan() {
		var snap service.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, snap)
		if len(lines) == 3 {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
			if _, err := http.DefaultClient.Do(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 4 {
		t.Fatalf("got %d stream lines, want at least 4", len(lines))
	}
	last := lines[len(lines)-1]
	if last.Status != service.StatusCanceled {
		t.Errorf("final line status %q, want canceled", last.Status)
	}
	for i := 1; i < len(lines); i++ {
		if lines[i].States < lines[i-1].States {
			t.Errorf("states went backwards at line %d: %d -> %d", i, lines[i-1].States, lines[i].States)
		}
	}
}

// TestDrainGraceful checks the SIGTERM path: draining rejects new
// submissions with 503 while an in-flight job runs to completion and its
// verdict is preserved.
func TestDrainGraceful(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{MaxJobs: 1, Workers: 2})
	id := submitAsync(t, ts.URL, service.VerifyRequest{Source: corpusSource(t, "lamport2-ra")})

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// Once the server reports draining, new work is rejected. The probe
	// waits for that report rather than submitting early: a submission
	// that won the race against Drain would be queued, and its cached
	// verdict would answer every later probe with 200.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, body := postJSON(t, ts.URL, service.VerifyRequest{Source: corpusSource(t, "SB")}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: code %d (%s), want 503", resp.StatusCode, body)
	}

	if err := <-drained; err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	snap := getSnapshot(t, ts.URL, id)
	if snap.Status != service.StatusDone || snap.Result == nil || !snap.Result.Robust {
		t.Fatalf("in-flight job after drain: %+v, want completed robust verdict", snap)
	}
}

// TestDrainForced checks the drain deadline: a job that outlives it is
// force-canceled and Drain reports ErrDrainTimeout.
func TestDrainForced(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{MaxJobs: 1, Workers: 2})
	id := submitAsync(t, ts.URL, service.VerifyRequest{Source: bigSource(t)})
	waitStatus(t, ts.URL, id, service.StatusRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); !errors.Is(err, service.ErrDrainTimeout) {
		t.Fatalf("Drain = %v, want ErrDrainTimeout", err)
	}
	snap := getSnapshot(t, ts.URL, id)
	if snap.Status != service.StatusCanceled || snap.Result != nil {
		t.Fatalf("forced-drain job: %+v, want canceled without verdict", snap)
	}
}

// TestHealthzAndStats sanity-checks the operational endpoints.
func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !h.OK {
		t.Fatalf("healthz: %d ok=%v", resp.StatusCode, h.OK)
	}

	postJSON(t, ts.URL, service.VerifyRequest{Source: corpusSource(t, "SB"), Wait: true})
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st struct {
		Submitted   int64 `json:"submitted"`
		CacheMisses int64 `json:"cacheMisses"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.CacheMisses != 1 {
		t.Errorf("stats after one submission: %+v", st)
	}
}

// TestJobNotFound checks 404s on the job endpoints.
func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/nope"},
		{http.MethodGet, "/v1/jobs/nope/stream"},
		{http.MethodDelete, "/v1/jobs/nope"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: code %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestReduceOption exercises the reduce request knob end to end: the
// reduced run must agree on the verdict while exploring strictly fewer
// states (seqlock has a symmetric reader pair and a read-only phase), the
// result must carry the reduction counters, and the two runs must memoize
// under distinct cache keys.
func TestReduceOption(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 2, Workers: 2})

	verify := func(src string, reduce bool) *service.Result {
		resp, body := postJSON(t, ts.URL, service.VerifyRequest{Source: src, Wait: true, Reduce: reduce})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("code=%d body=%s", resp.StatusCode, body)
		}
		var snap service.Snapshot
		if err := json.Unmarshal(body, &snap); err == nil && snap.Result != nil {
			return snap.Result
		}
		var cached struct {
			Result *service.Result `json:"result"`
		}
		if err := json.Unmarshal(body, &cached); err != nil || cached.Result == nil {
			t.Fatalf("bad body: %s", body)
		}
		return cached.Result
	}

	src := corpusSource(t, "seqlock")
	base := verify(src, false)
	if !base.Robust || base.States == 0 {
		t.Fatalf("unreduced seqlock: %+v, want robust via exploration", base)
	}
	if base.AmpleHits != 0 || base.SleepSkips != 0 || base.SymmetryFolds != 0 {
		t.Fatalf("unreduced seqlock carries reduction counters: %+v", base)
	}
	red := verify(src, true)
	if !red.Robust || red.States >= base.States {
		t.Fatalf("reduced seqlock: %+v, want robust with < %d states", red, base.States)
	}
	if red.AmpleHits == 0 && red.SleepSkips == 0 && red.SymmetryFolds == 0 {
		t.Fatalf("reduced seqlock reports no reduction activity: %+v", red)
	}

	// Re-submitting the unreduced request must still see the full numbers.
	again := verify(src, false)
	if again.States != base.States {
		t.Fatalf("unreduced resubmission: %+v, want the cached full result %+v", again, base)
	}
}
