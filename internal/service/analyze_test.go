package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/service"
)

// goMP is the message-passing idiom: robust, race-free, one unit.
const goMP = `//rocker:vals 4
package mp

import "sync/atomic"

var data int32
var flag atomic.Int32

func producer() {
	data = 1
	flag.Store(1)
}

func consumer() {
	for flag.Load() != 1 {
	}
	if data != 1 {
		panic("lost message")
	}
}

func run() {
	go producer()
	go consumer()
}
`

// goSB is the store-buffering shape: not robust, with an NA race on cs.
const goSB = `//rocker:vals 3
package sb

import "sync/atomic"

var x, y atomic.Int32
var cs int32

func left() {
	x.Store(1)
	if y.Load() == 0 {
		cs = 1
	}
}

func right() {
	y.Store(1)
	if x.Load() == 0 {
		cs = 2
	}
}

func run() {
	go left()
	go right()
}
`

func postAnalyze(t *testing.T, url string, req service.AnalyzeRequest) (*http.Response, service.AnalyzeResponse, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var ar service.AnalyzeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(out.Bytes(), &ar); err != nil {
			t.Fatalf("bad analyze body: %v\n%s", err, out.Bytes())
		}
	}
	return resp, ar, out.Bytes()
}

func TestAnalyzeRobustAndCached(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 2, Workers: 2})

	req := service.AnalyzeRequest{Source: goMP, Filename: "mp.go", Models: []string{"ra", "sra"}}
	resp, ar, body := postAnalyze(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code=%d body=%s", resp.StatusCode, body)
	}
	if ar.Package != "mp" || len(ar.Units) != 1 {
		t.Fatalf("unexpected response: %s", body)
	}
	u := ar.Units[0]
	if u.Name != "run" || !u.Verdicts["ra"] || !u.Verdicts["sra"] {
		t.Errorf("unit = %+v, want robust run unit", u)
	}
	if len(u.Cached) != 0 {
		t.Errorf("first analyze should not hit the cache: %+v", u.Cached)
	}
	for _, f := range u.Findings {
		if f.Severity == "error" {
			t.Errorf("robust unit has error finding: %+v", f)
		}
	}
	if !strings.Contains(u.Lit, "wait(flag = 1)") {
		t.Errorf("lit listing missing blocking wait:\n%s", u.Lit)
	}

	// Alpha-renamed source is digest-equal: the verdict must come from
	// the cache this time.
	renamed := strings.NewReplacer(
		"data", "payload", "flag", "ready",
		"producer", "sender", "consumer", "receiver",
	).Replace(goMP)
	resp2, ar2, body2 := postAnalyze(t, ts.URL, service.AnalyzeRequest{Source: renamed, Models: []string{"ra", "sra"}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("code=%d body=%s", resp2.StatusCode, body2)
	}
	u2 := ar2.Units[0]
	if u2.Digest != u.Digest {
		t.Errorf("alpha-renaming changed the digest: %s vs %s", u2.Digest, u.Digest)
	}
	if u2.Cached["ra"] != service.CachedMemory || u2.Cached["sra"] != service.CachedMemory {
		t.Errorf("renamed unit should hit the memory cache: %+v", u2.Cached)
	}
}

func TestAnalyzeNonRobustFindings(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 2, Workers: 2})

	resp, ar, body := postAnalyze(t, ts.URL, service.AnalyzeRequest{Source: goSB, Filename: "sb.go"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code=%d body=%s", resp.StatusCode, body)
	}
	u := ar.Units[0]
	if u.Verdicts["ra"] {
		t.Fatalf("store buffering should not be robust: %s", body)
	}
	var witness, repair bool
	for _, f := range u.Findings {
		if f.File != "sb.go" || f.Line == 0 {
			t.Errorf("finding not anchored to Go source: %+v", f)
		}
		if strings.Contains(f.Message, "witness:") {
			witness = true
		}
		if strings.Contains(f.Message, "suggested fix:") {
			repair = true
		}
	}
	if !witness || !repair {
		t.Errorf("want witness and repair findings, got: %s", body)
	}

	// A non-robust cached verdict re-runs so findings stay populated;
	// the response still reports the cache hit.
	resp2, ar2, body2 := postAnalyze(t, ts.URL, service.AnalyzeRequest{Source: goSB, Filename: "sb.go"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("code=%d body=%s", resp2.StatusCode, body2)
	}
	u2 := ar2.Units[0]
	if u2.Verdicts["ra"] {
		t.Errorf("cached rerun flipped the verdict")
	}
	if len(u2.Findings) == 0 {
		t.Errorf("cached rerun lost the findings: %s", body2)
	}
}

func TestAnalyzeDeclinesAndErrors(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 2, Workers: 2})

	// Channels are declined with a reason, not mistranslated.
	chSrc := `package p
func run() {
	ch := make(chan int)
	go func() { ch <- 1 }()
	<-ch
}`
	resp, ar, body := postAnalyze(t, ts.URL, service.AnalyzeRequest{Source: chSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code=%d body=%s", resp.StatusCode, body)
	}
	if len(ar.Units) != 0 || len(ar.Declined) != 1 {
		t.Fatalf("want 1 decline, got: %s", body)
	}
	d := ar.Declined[0]
	if d.Name != "run" || d.Construct == "" || d.Line == 0 {
		t.Errorf("decline lacks construct/position: %+v", d)
	}

	// A Go type error is a 400, not a 500.
	resp2, _, _ := postAnalyze(t, ts.URL, service.AnalyzeRequest{Source: "package p\nfunc f() { undefined() }"})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("type error: code=%d, want 400", resp2.StatusCode)
	}

	// Empty body is a 400.
	resp3, _, _ := postAnalyze(t, ts.URL, service.AnalyzeRequest{})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("empty source: code=%d, want 400", resp3.StatusCode)
	}

	// text/plain bodies work like /v1/verify.
	resp4, err := http.Post(ts.URL+"/v1/analyze?models=ra", "text/plain", strings.NewReader(goMP))
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Errorf("text/plain analyze: code=%d, want 200", resp4.StatusCode)
	}
}

// TestAnalyzeImportsStandardLibraryOnly pins that analyzed source cannot
// import the server's own module, an unknown module path or a path
// relative to the server's working directory: each is a 400 naming the
// import, and the error text does not reveal the working directory.
func TestAnalyzeImportsStandardLibraryOnly(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 1, Workers: 1})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"repro/internal/lang", "example.com/nope", "./testdata"} {
		src := strings.Replace(goMP, `import "sync/atomic"`, "import (\n\t\"sync/atomic\"\n\t_ \""+path+"\"\n)", 1)
		resp, _, body := postAnalyze(t, ts.URL, service.AnalyzeRequest{Source: src})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("import %q: code=%d, want 400: %s", path, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), path+" is not a standard-library package") {
			t.Errorf("import %q: error does not name the import: %s", path, body)
		}
		if strings.Contains(string(body), wd) {
			t.Errorf("import %q: error reveals the working directory: %s", path, body)
		}
	}
}

// TestAnalyzeRefusesUnmodeledImports pins that a standard-library import
// the frontend does not model is a 400 naming the import, answered
// without the go command or the C compiler (PATH finds neither).
func TestAnalyzeRefusesUnmodeledImports(t *testing.T) {
	t.Setenv("PATH", "/nonexistent")
	_, ts := newTestServer(t, service.Config{MaxJobs: 1, Workers: 1})
	for _, path := range []string{"os/user", "net/http"} {
		src := strings.Replace(goMP, `import "sync/atomic"`, "import (\n\t\"sync/atomic\"\n\t_ \""+path+"\"\n)", 1)
		resp, _, body := postAnalyze(t, ts.URL, service.AnalyzeRequest{Source: src})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("import %q: code=%d, want 400: %s", path, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), path+" is not a standard-library package the frontend models") {
			t.Errorf("import %q: error does not name the import: %s", path, body)
		}
	}
}
