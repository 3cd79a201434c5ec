package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/frontend"
	"repro/internal/model"
	"repro/internal/prog"
	"repro/internal/verkey"
)

// AnalyzeRequest is the JSON body of POST /v1/analyze: Go source in,
// robustness findings out. A text/plain body is also accepted and
// treated as {"source": <body>}.
type AnalyzeRequest struct {
	// Source is a single Go file (used when Files is empty).
	Source string `json:"source,omitempty"`
	// Filename names Source in findings (default "input.go").
	Filename string `json:"filename,omitempty"`
	// Files is a multi-file package: file name -> Go source.
	Files map[string]string `json:"files,omitempty"`
	// Models are the verdict models (default ["ra"]; any registry mode).
	Models []string `json:"models,omitempty"`
	// MaxStates and TimeoutMs clamp against the server's bounds exactly
	// like /v1/verify.
	MaxStates int   `json:"maxStates,omitempty"`
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// NoRepair suppresses fence-repair suggestions on non-robust units.
	NoRepair bool `json:"noRepair,omitempty"`
}

// AnalyzeFinding is one diagnostic anchored to a Go source position.
type AnalyzeFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Severity string `json:"severity"` // "error" or "warning"
	Message  string `json:"message"`
}

// AnalyzeDecline reports a concurrency unit the frontend refused to
// translate, with the construct that stopped it.
type AnalyzeDecline struct {
	Name      string `json:"name"`
	File      string `json:"file"`
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Construct string `json:"construct"`
	Reason    string `json:"reason"`
}

// AnalyzeUnit is the verdict for one translated concurrency unit.
type AnalyzeUnit struct {
	Name   string `json:"name"`
	File   string `json:"file"`
	Line   int    `json:"line"`
	Digest string `json:"digest"`
	// Lit is the unit's translated .lit listing (with source comments).
	Lit string `json:"lit"`
	// Verdicts maps each requested model to its robustness verdict.
	Verdicts map[string]bool `json:"verdicts"`
	// Cached maps models whose verdict was served from a cache to the
	// hit's source ("memory" or "disk"). Robust cached verdicts skip
	// re-exploration; non-robust ones re-run so findings carry a witness.
	Cached   map[string]string `json:"cached,omitempty"`
	Findings []AnalyzeFinding  `json:"findings,omitempty"`
}

// AnalyzeResponse is the 200 body of POST /v1/analyze.
type AnalyzeResponse struct {
	Package  string           `json:"package"`
	Units    []AnalyzeUnit    `json:"units"`
	Declined []AnalyzeDecline `json:"declined,omitempty"`
}

// handleAnalyze lifts Go source through internal/frontend and lints
// every translated concurrency unit, synchronously (translation is
// static, and the per-unit exploration respects the clamped bounds and
// deadline). Per-unit, per-model verdicts memoize in the same verdict
// caches as /v1/verify under their own verkey bit: a digest-equal Go
// unit (alpha-renamed, reformatted) hits the cache on its next analyze.
//
//	200 — analysis ran; units carry verdicts and findings, declines
//	      carry per-construct reasons
//	400 — body or Go source malformed (type errors included)
//	413 — body exceeds the source size limit
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxSourceBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxSourceBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.MaxSourceBytes)
		return
	}
	var req AnalyzeRequest
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
	} else {
		req.Source = string(body)
	}
	if len(req.Models) == 0 {
		if ms := r.URL.Query().Get("models"); ms != "" {
			req.Models = strings.Split(ms, ",")
		} else {
			req.Models = []string{ModeRA}
		}
	}
	for _, m := range req.Models {
		if !validMode(m) {
			writeError(w, http.StatusBadRequest, "unknown model %q (supported: %s)", m, model.ModeList())
			return
		}
	}
	files := req.Files
	if len(files) == 0 {
		if strings.TrimSpace(req.Source) == "" {
			writeError(w, http.StatusBadRequest, "empty Go source")
			return
		}
		name := req.Filename
		if name == "" {
			name = "input.go"
		}
		files = map[string]string{name: req.Source}
	}

	pkg, err := frontend.TranslateSources(files)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	maxStates, timeout := s.clampLimits(VerifyRequest{MaxStates: req.MaxStates, TimeoutMs: req.TimeoutMs})
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	resp := AnalyzeResponse{Package: pkg.PkgName, Units: []AnalyzeUnit{}}
	for _, d := range pkg.Declined {
		resp.Declined = append(resp.Declined, AnalyzeDecline{
			Name: d.Name, File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Construct: d.Construct, Reason: d.Reason,
		})
	}

	for _, u := range pkg.Units {
		digest := prog.CanonicalDigest(u.Prog)
		au := AnalyzeUnit{
			Name: u.Name, File: u.Pos.Filename, Line: u.Pos.Line,
			Digest:   digest.String(),
			Lit:      frontend.EmitLit(u),
			Verdicts: map[string]bool{},
		}

		// Cache pass: a robust cached verdict is final (a robust unit has
		// no witness to regenerate); a non-robust one re-runs below so the
		// response carries witnesses and repair suggestions.
		var run []string
		for _, m := range req.Models {
			key := verkey.Key(digest, m, maxStates, true, false, true)
			if res, source := s.cachedResult(key); res != nil && res.Robust {
				au.Verdicts[m] = true
				if au.Cached == nil {
					au.Cached = map[string]string{}
				}
				au.Cached[m] = source
				continue
			}
			run = append(run, m)
		}

		var findings []frontend.Finding
		if len(run) > 0 {
			start := time.Now()
			rep, err := frontend.LintUnit(u, frontend.LintOptions{
				Models:    run,
				MaxStates: maxStates,
				Workers:   s.cfg.Workers,
				NoRepair:  req.NoRepair,
				Ctx:       ctx,
			})
			if err != nil {
				writeError(w, http.StatusBadRequest, "%s: %v", u.Name, err)
				return
			}
			elapsed := float64(time.Since(start).Microseconds()) / 1000
			for _, m := range run {
				au.Verdicts[m] = rep.Verdicts[m]
				key := verkey.Key(digest, m, maxStates, true, false, true)
				s.memoize(key, &Result{Mode: m, Robust: rep.Verdicts[m], ElapsedMs: elapsed}, true)
			}
			findings = rep.Findings
		} else {
			findings = frontend.StaticFindings(u)
		}
		for _, f := range findings {
			au.Findings = append(au.Findings, AnalyzeFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Severity: f.Severity, Message: f.Message,
			})
		}
		resp.Units = append(resp.Units, au)
	}
	sort.Slice(resp.Units, func(i, j int) bool { return resp.Units[i].Name < resp.Units[j].Name })
	writeJSON(w, http.StatusOK, resp)
}
