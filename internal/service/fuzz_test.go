package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// FuzzRequestBodies sends arbitrary bytes to the /v1/verify and
// /v1/analyze handlers, both as a JSON body and as a text/plain one, and
// checks that every response is a 2xx or a 4xx, never a 5xx: a body that
// is not JSON where JSON is declared, or that names no valid program,
// gets a 4xx with an error message, and no body panics the server. The
// server's bounds are tight so that an input that happens to be a valid
// program finishes at once. `go test` runs the seeds only, `go test
// -fuzz` explores.
func FuzzRequestBodies(f *testing.F) {
	sb, _ := json.Marshal(service.VerifyRequest{Source: sbVariant, Wait: true})
	mp, _ := json.Marshal(service.AnalyzeRequest{Source: goMP, NoRepair: true})
	for _, seed := range [][]byte{sb, mp, []byte(sbVariant), []byte(goMP), []byte(`{"source":`), []byte(`{"mode":"nope","source":"x"}`), {}} {
		f.Add(seed)
	}
	srv, err := service.New(service.Config{
		MaxJobs: 1, MaxQueue: 4, Workers: 1, MaxStates: 10_000,
		DefaultTimeout: time.Second, MaxTimeout: time.Second,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/verify", "/v1/analyze"} {
			for _, ct := range []string{"application/json", "text/plain"} {
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				req.Header.Set("Content-Type", ct)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				code := rec.Code
				if code < 200 || code >= 500 {
					t.Fatalf("POST %s (%s) %q: status %d: %s", path, ct, body, code, rec.Body)
				}
				if ct == "application/json" && !json.Valid(body) && code/100 != 4 {
					t.Fatalf("POST %s %q: malformed JSON got status %d", path, body, code)
				}
				if code/100 == 4 {
					var e struct{ Error string }
					if json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
						t.Fatalf("POST %s (%s) %q: %d without an error message: %s", path, ct, body, code, rec.Body)
					}
				}
			}
		}
	})
}
