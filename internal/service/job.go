package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/prog"
	"repro/internal/staterobust"
)

// Mode names the verification question a job answers. The modes are
// defined by the internal/model registry — rockerd re-exports the
// constants so existing callers keep compiling, but validation, error
// messages, and dispatch all go through the registry, so a newly
// registered model is automatically accepted (and enumerated) here.
const (
	ModeRA       = model.ModeRA       // execution-graph robustness against RA (the paper's main question)
	ModeSRA      = model.ModeSRA      // …against the POPL'16 SRA strengthening
	ModeSC       = model.ModeSC       // plain SC exploration: assertion checking only
	ModeTSO      = model.ModeTSO      // state robustness against TSO, attack-based instrumentation
	ModeStateRA  = model.ModeStateRA  // state robustness via the §3 timestamp machine
	ModeStateSRA = model.ModeStateSRA // …with SRA write slots
	ModeStateTSO = model.ModeStateTSO // state robustness via the exhaustive TSO store-buffer product
)

// validMode reports whether m names a verification mode.
func validMode(m string) bool { return model.Valid(m) }

// Job statuses. A job moves queued → running → one of the terminal
// statuses; canceled covers client cancellation, deadline expiry, and
// shutdown — a canceled job never carries a verdict.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusCanceled = "canceled"
	StatusFailed   = "failed"
	// StatusForwarded marks a local handle for a job owned by a cluster
	// peer: GET/DELETE/stream proxy to the owner, and the local status
	// flips to the observed terminal status once the owner reports one.
	StatusForwarded = "forwarded"
)

// Cache-hit sources, reported in cached responses, batch lines, and the
// per-source /v1/stats counters.
const (
	CachedMemory = "memory" // in-memory LRU
	CachedDisk   = "disk"   // persistent verdict store (vstore)
	CachedPeer   = "peer"   // served by the owning cluster peer
)

// Result is the JSON-serializable outcome of a completed verification.
type Result struct {
	Mode   string `json:"mode"`
	Robust bool   `json:"robust"`
	// States counts distinct explored states: ⟨program, SCM⟩ states for
	// the execution-graph modes, compound weak-machine states for the
	// state-* modes, plain SC states for mode sc.
	States int `json:"states"`
	// SCStates/WeakStates are the program-state counts of the state-*
	// modes (0 otherwise).
	SCStates   int `json:"scStates,omitempty"`
	WeakStates int `json:"weakStates,omitempty"`
	// BufBoundHit reports that the TSO store-buffer capacity inhibited a
	// write (tso and state-tso): the verdict holds only up to that
	// capacity.
	BufBoundHit bool `json:"bufBoundHit,omitempty"`
	// MetadataBits is the §5.1 instrumentation size (execution-graph
	// modes).
	MetadataBits int    `json:"metadataBits,omitempty"`
	Violations   int    `json:"violations,omitempty"`
	AssertFail   string `json:"assertFail,omitempty"`
	TraceLen     int    `json:"traceLen,omitempty"`
	// Static-pruning outcomes (execution-graph modes with staticPrune
	// set). Certificate means the conflict analysis discharged the
	// program with zero exploration; PrunedLocs counts locations dropped
	// from monitor instrumentation; CritSharpened reports that constant
	// propagation shrank some critical-value set.
	Certificate   bool `json:"certificate,omitempty"`
	PrunedLocs    int  `json:"prunedLocs,omitempty"`
	CritSharpened bool `json:"critSharpened,omitempty"`
	// Partial-order reduction counters (execution-graph modes with reduce
	// set): ample-set expansions taken, sleep-set edge skips, and states
	// folded onto a symmetric representative. AmpleHits is deterministic;
	// the other two depend on expansion order.
	AmpleHits     int64   `json:"ampleHits,omitempty"`
	SleepSkips    int64   `json:"sleepSkips,omitempty"`
	SymmetryFolds int64   `json:"symmetryFolds,omitempty"`
	ElapsedMs     float64 `json:"elapsedMs"`
}

// job is one queued or running verification. Progress fields are atomics:
// the verifier's progress hook stores into them from worker goroutines
// while snapshot readers load them without locks.
type job struct {
	id     string
	mode   string
	digest prog.Digest
	key    string // verdict-cache key
	prg    *lang.Program
	src    string // original source text, retained for steal handover

	maxStates   int
	workers     int
	timeout     time.Duration
	staticPrune bool
	reduce      bool

	ctx    context.Context
	cancel context.CancelCauseFunc

	created time.Time

	// remote, when non-nil, makes this a forwarded handle: the job runs
	// on the named peer under remote.id and this node proxies to it.
	// Immutable after creation.
	remote *remoteRef

	// mu guards status, result, err, started, finished, stolenBy,
	// memoized.
	mu       sync.Mutex
	status   string
	result   *Result
	err      string
	started  time.Time
	finished time.Time
	// stolenBy names the peer that took this queued job via /v1/steal;
	// the terminal status arrives through POST /v1/jobs/{id}/result.
	stolenBy string
	// memoized dedups the forwarded handle's cache fill (proxy snapshots
	// may observe the terminal status more than once).
	memoized bool

	states   atomic.Int64
	expanded atomic.Int64

	done chan struct{} // closed on reaching a terminal status
}

// remoteRef names the peer-side identity of a forwarded job.
type remoteRef struct {
	node cluster.Member
	id   string // job id on the owning peer
}

// isStolen reports whether a peer took this job via /v1/steal.
func (j *job) isStolen() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stolenBy != ""
}

// errDeleted marks client-requested cancellation (DELETE /v1/jobs/{id}).
var errDeleted = errors.New("canceled by client")

// errDrained marks jobs cut off by a forced shutdown.
var errDrained = errors.New("server shutting down")

// errLost marks a stolen job whose thief never reported back.
var errLost = errors.New("stolen job lost: thief never pushed a result")

// Snapshot is the polling view of a job (GET /v1/jobs/{id} and each line
// of the NDJSON stream).
type Snapshot struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Mode   string `json:"mode"`
	Digest string `json:"digest"`
	// States/Expanded are live exploration counters; Frontier is their
	// difference — states interned but not yet expanded, the BFS frontier.
	States   int64 `json:"states"`
	Expanded int64 `json:"expanded"`
	Frontier int64 `json:"frontier"`
	// StatesPerSec is the mean exploration rate since the job started.
	StatesPerSec float64 `json:"statesPerSec"`
	ElapsedMs    float64 `json:"elapsedMs"`
	// HeapBytes is the process-wide live heap (rate-limited sample shared
	// by all jobs).
	HeapBytes uint64  `json:"heapBytes"`
	Result    *Result `json:"result,omitempty"`
	Error     string  `json:"error,omitempty"`
}

func (j *job) snapshot() Snapshot {
	j.mu.Lock()
	status, result, errMsg := j.status, j.result, j.err
	started, finished := j.started, j.finished
	j.mu.Unlock()

	s := Snapshot{
		ID:        j.id,
		Status:    status,
		Mode:      j.mode,
		Digest:    j.digest.String(),
		States:    j.states.Load(),
		Expanded:  j.expanded.Load(),
		HeapBytes: sampleHeap(),
		Result:    result,
		Error:     errMsg,
	}
	if s.Frontier = s.States - s.Expanded; s.Frontier < 0 {
		s.Frontier = 0
	}
	if !started.IsZero() {
		end := finished
		if end.IsZero() {
			end = time.Now()
		}
		el := end.Sub(started)
		s.ElapsedMs = float64(el) / float64(time.Millisecond)
		if el > 0 {
			s.StatesPerSec = float64(s.States) / el.Seconds()
		}
	}
	return s
}

// finish moves the job to a terminal status. Exactly one call wins; later
// calls (e.g. a cancellation racing completion) are ignored.
func (j *job) finish(status string, res *Result, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusDone, StatusCanceled, StatusFailed:
		return
	}
	j.status = status
	j.result = res
	j.err = errMsg
	j.finished = time.Now()
	close(j.done)
}

// run executes the job's verification and resolves its terminal status.
// Called on a worker goroutine with admission already granted.
func (j *job) run() {
	j.mu.Lock()
	if j.status != StatusQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()

	ctx := j.ctx
	cancel := func() {}
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeoutCause(ctx, j.timeout, context.DeadlineExceeded)
	}
	defer cancel()

	res, err := j.verify(ctx)
	switch {
	case err == nil:
		j.finish(StatusDone, res, "")
	case errors.Is(err, explore.ErrCanceled):
		j.finish(StatusCanceled, nil, fmt.Sprintf("canceled: %v", context.Cause(ctx)))
	default:
		j.finish(StatusFailed, nil, err.Error())
	}
}

// verify dispatches to the engine selected by the job's mode.
func (j *job) verify(ctx context.Context) (*Result, error) {
	start := time.Now()
	switch j.mode {
	case ModeRA, ModeSRA, ModeSC:
		opts := core.Options{
			Model:        core.ModelRA,
			AbstractVals: true,
			MaxStates:    j.maxStates,
			Workers:      j.workers,
			StaticPrune:  j.staticPrune,
			Reduce:       j.reduce,
			Ctx:          ctx,
			Progress: func(p core.Progress) {
				j.states.Store(int64(p.States))
				j.expanded.Store(p.Expanded)
			},
		}
		if j.mode == ModeSRA {
			opts.Model = core.ModelSRA
		}
		if j.mode == ModeSC {
			sv, err := core.VerifySC(j.prg, opts)
			if err != nil {
				return nil, err
			}
			res := &Result{
				Mode:          j.mode,
				Robust:        sv.AssertFail == nil,
				States:        sv.States,
				AmpleHits:     sv.AmpleHits,
				SleepSkips:    sv.SleepSkips,
				SymmetryFolds: sv.SymmetryFolds,
				ElapsedMs:     msSince(start),
			}
			if sv.AssertFail != nil {
				res.AssertFail = sv.AssertFail.Error()
			}
			j.states.Store(int64(sv.States))
			return res, nil
		}
		v, err := core.Verify(j.prg, opts)
		if err != nil {
			return nil, err
		}
		res := &Result{
			Mode:          j.mode,
			Robust:        v.Robust,
			States:        v.States,
			MetadataBits:  v.MetadataBits,
			Violations:    len(v.Violations),
			TraceLen:      len(v.Trace),
			Certificate:   v.Certificate,
			PrunedLocs:    v.PrunedLocs,
			CritSharpened: v.CritSharpened,
			AmpleHits:     v.AmpleHits,
			SleepSkips:    v.SleepSkips,
			SymmetryFolds: v.SymmetryFolds,
			ElapsedMs:     msSince(start),
		}
		if v.AssertFail != nil {
			res.AssertFail = v.AssertFail.Error()
		}
		j.states.Store(int64(v.States))
		return res, nil
	case ModeTSO, ModeStateRA, ModeStateSRA, ModeStateTSO:
		lim := staterobust.Limits{
			MaxStates: j.maxStates,
			Workers:   j.workers,
			Reduce:    j.reduce,
			Ctx:       ctx,
			Progress: func(explored int) {
				j.states.Store(int64(explored))
				j.expanded.Add(progressPeriod)
			},
		}
		r, err := model.Check(j.mode, j.prg, lim)
		if err != nil {
			return nil, err
		}
		j.states.Store(int64(r.Explored))
		return &Result{
			Mode:        j.mode,
			Robust:      r.Robust,
			States:      r.Explored,
			SCStates:    r.SCStates,
			WeakStates:  r.WeakStates,
			BufBoundHit: r.BufBoundHit,
			TraceLen:    len(r.WitnessTrace),
			ElapsedMs:   msSince(start),
		}, nil
	}
	return nil, fmt.Errorf("unknown mode %q (supported: %s)", j.mode, model.ModeList())
}

// progressPeriod mirrors the staterobust checkers' fixed progress cadence,
// so the expanded counter advances even though those hooks only carry the
// explored-state count.
const progressPeriod = 4096

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// heap sampling: ReadMemStats briefly stops the world, so snapshots share
// one sample refreshed at most every 200ms.
var (
	heapSampleNS atomic.Int64
	heapBytes    atomic.Uint64
	heapMu       sync.Mutex
)

func sampleHeap() uint64 {
	const maxAge = 200 * time.Millisecond
	now := time.Now().UnixNano()
	if now-heapSampleNS.Load() > int64(maxAge) {
		heapMu.Lock()
		if now-heapSampleNS.Load() > int64(maxAge) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapBytes.Store(ms.HeapInuse)
			heapSampleNS.Store(now)
		}
		heapMu.Unlock()
	}
	return heapBytes.Load()
}
