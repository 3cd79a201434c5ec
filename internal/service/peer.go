package service

// Cluster-facing machinery: request forwarding to the digest's owning
// node, local proxy handles for forwarded jobs (so GET/DELETE/stream —
// and in particular cancellation — work against the node the client
// talked to), the /v1/steal handover, and the idle-node steal loop.
//
// Failure policy everywhere: a peer problem costs latency, never
// availability. Forwarding that exhausts its retries degrades to local
// verification; a thief that dies resolves the victim's job as failed
// after a grace period; a proxy whose owner vanished serves the last
// observed terminal state when it has one.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/parser"
	"repro/internal/prog"
	"repro/internal/verkey"
)

// netStats are the per-source counters behind /v1/stats: where verdicts
// came from and how much work moved between peers.
type netStats struct {
	memoryHits   atomic.Int64 // served from the in-memory LRU
	diskHits     atomic.Int64 // served from the persistent verdict store
	peerForwards atomic.Int64 // requests this node forwarded to an owner
	forwardFails atomic.Int64 // forwards that exhausted retries and degraded to local
	steals       atomic.Int64 // jobs this node stole from peers
	stolen       atomic.Int64 // jobs peers stole from this node's queue
	batchItems   atomic.Int64 // items processed via /v1/verify/batch
}

// peerBodyLimit bounds bodies read from peers (snapshots and verdicts are
// small; this is defense against a confused peer, not a tuning knob).
const peerBodyLimit = 4 << 20

// forwardVerify relays a validated verify request to the digest's owner.
// It returns true if a response was written (whatever its status); false
// means forwarding failed and the caller should verify locally.
func (s *Server) forwardVerify(w http.ResponseWriter, r *http.Request, owner cluster.Member, req VerifyRequest, d prog.Digest, key string, maxStates int, timeout time.Duration) bool {
	fr := VerifyRequest{
		Source:      req.Source,
		Mode:        req.Mode,
		TimeoutMs:   timeout.Milliseconds(),
		MaxStates:   maxStates,
		Wait:        req.Wait,
		StaticPrune: req.StaticPrune,
		Reduce:      req.Reduce,
	}
	body, err := json.Marshal(fr)
	if err != nil {
		return false
	}
	resp, err := s.cluster.Forward(r.Context(), owner, http.MethodPost, "/v1/verify", "application/json", body)
	if err != nil {
		s.nstats.forwardFails.Add(1)
		return false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, peerBodyLimit))
	if err != nil {
		s.nstats.forwardFails.Add(1)
		return false
	}
	s.nstats.peerForwards.Add(1)
	w.Header().Set(cluster.OwnerHeader, owner.ID)

	if resp.StatusCode == http.StatusAccepted {
		// Async admission on the owner: register a local proxy handle so
		// the client keeps talking to this node (GET/DELETE/stream all
		// proxy through it, and DELETE propagates to the owner).
		var snap Snapshot
		if json.Unmarshal(data, &snap) == nil && snap.ID != "" {
			if pj := s.newProxyJob(owner, snap.ID, req.Mode, d, key); pj != nil {
				snap.ID = pj.id
				w.Header().Set("Location", "/v1/jobs/"+pj.id)
				writeJSON(w, http.StatusAccepted, snap)
				return true
			}
		}
	}
	if resp.StatusCode == http.StatusOK {
		// Replicate a completed verdict into the local LRU (not the disk
		// log — the owner persists it; memory replication just makes the
		// next lookup here instant).
		var peek struct {
			Cached bool    `json:"cached"`
			Status string  `json:"status"`
			Result *Result `json:"result"`
		}
		if json.Unmarshal(data, &peek) == nil && peek.Result != nil &&
			(peek.Cached || peek.Status == StatusDone) {
			s.cache.put(key, peek.Result)
		}
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(data)
	return true
}

// newProxyJob registers a local handle for a job admitted on a peer.
// Returns nil while draining.
func (s *Server) newProxyJob(owner cluster.Member, remoteID, mode string, d prog.Digest, key string) *job {
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &job{
		mode:    mode,
		digest:  d,
		key:     key,
		remote:  &remoteRef{node: owner, id: remoteID},
		ctx:     ctx,
		cancel:  cancel,
		created: time.Now(),
		status:  StatusForwarded,
		done:    make(chan struct{}),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		cancel(errDrained)
		return nil
	}
	s.nextID++
	j.id = fmt.Sprintf("j%06d", s.nextID)
	s.jobs[j.id] = j
	return j
}

// observeRemote folds a remote snapshot into the local proxy handle. The
// first terminal observation copies status/result locally (so the handle
// outlives the owner), memoizes a completed verdict, and schedules the
// handle for retention eviction.
func (s *Server) observeRemote(j *job, snap Snapshot) {
	switch snap.Status {
	case StatusDone, StatusCanceled, StatusFailed:
	default:
		return
	}
	j.mu.Lock()
	if j.memoized {
		j.mu.Unlock()
		return
	}
	j.memoized = true
	j.status = snap.Status
	j.result = snap.Result
	j.err = snap.Error
	j.finished = time.Now()
	j.mu.Unlock()
	if snap.Status == StatusDone && snap.Result != nil {
		s.cache.put(j.key, snap.Result)
	}
	s.retire(j.id)
}

// localProxySnapshot is the proxy handle's own view, served when the
// owner is unreachable but a terminal state was already observed.
func (j *job) localProxySnapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID:     j.id,
		Status: j.status,
		Mode:   j.mode,
		Digest: j.digest.String(),
		Result: j.result,
		Error:  j.err,
	}
}

// proxyJobGet proxies GET /v1/jobs/{id} for a forwarded handle.
func (s *Server) proxyJobGet(w http.ResponseWriter, r *http.Request, j *job) {
	resp, err := s.cluster.Forward(r.Context(), j.remote.node, http.MethodGet, "/v1/jobs/"+j.remote.id, "", nil)
	if err == nil {
		defer resp.Body.Close()
		var snap Snapshot
		if resp.StatusCode == http.StatusOK &&
			json.NewDecoder(io.LimitReader(resp.Body, peerBodyLimit)).Decode(&snap) == nil {
			snap.ID = j.id
			s.observeRemote(j, snap)
			writeJSON(w, http.StatusOK, snap)
			return
		}
		err = fmt.Errorf("owner returned %s", resp.Status)
	}
	if snap := j.localProxySnapshot(); snap.Status != StatusForwarded {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	writeError(w, http.StatusBadGateway, "owner %s unreachable: %v", j.remote.node.ID, err)
}

// proxyJobDelete propagates DELETE /v1/jobs/{id} to the owner: the remote
// job is canceled there (not merely forgotten here), then the local
// handle mirrors the terminal state.
func (s *Server) proxyJobDelete(w http.ResponseWriter, r *http.Request, j *job) {
	resp, err := s.cluster.Forward(r.Context(), j.remote.node, http.MethodDelete, "/v1/jobs/"+j.remote.id, "", nil)
	if err != nil {
		writeError(w, http.StatusBadGateway,
			"cancel not propagated: owner %s unreachable: %v", j.remote.node.ID, err)
		return
	}
	defer resp.Body.Close()
	var snap Snapshot
	if resp.StatusCode == http.StatusOK &&
		json.NewDecoder(io.LimitReader(resp.Body, peerBodyLimit)).Decode(&snap) == nil {
		snap.ID = j.id
		s.observeRemote(j, snap)
		writeJSON(w, http.StatusOK, snap)
		return
	}
	writeError(w, http.StatusBadGateway, "cancel not propagated: owner %s returned %s",
		j.remote.node.ID, resp.Status)
}

// proxyJobStream proxies the NDJSON progress stream from the owner,
// rewriting job ids to the local handle.
func (s *Server) proxyJobStream(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	resp, err := s.cluster.Forward(r.Context(), j.remote.node, http.MethodGet, "/v1/jobs/"+j.remote.id+"/stream", "", nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, "owner %s unreachable: %v", j.remote.node.ID, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		writeError(w, http.StatusBadGateway, "owner %s returned %s", j.remote.node.ID, resp.Status)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), peerBodyLimit)
	for sc.Scan() {
		var snap Snapshot
		if json.Unmarshal(sc.Bytes(), &snap) != nil {
			continue
		}
		snap.ID = j.id
		s.observeRemote(j, snap)
		if enc.Encode(snap) != nil {
			return
		}
		fl.Flush()
	}
}

// handleSteal hands one queued job over to an idle peer. 200 carries the
// handover payload; 204 means nothing is queued. The job stays registered
// here (clients keep polling this node); its terminal status arrives via
// POST /v1/jobs/{id}/result.
func (s *Server) handleSteal(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "not clustered")
		return
	}
	thief := r.Header.Get(cluster.ForwardHeader)
	if thief == "" {
		thief = "unknown-peer"
	}
	for {
		var j *job
		select {
		case jj, ok := <-s.queue:
			if !ok {
				w.WriteHeader(http.StatusNoContent) // draining
				return
			}
			j = jj
		default:
			w.WriteHeader(http.StatusNoContent)
			return
		}
		j.mu.Lock()
		if j.status != StatusQueued { // canceled while queued: skip it
			j.mu.Unlock()
			continue
		}
		j.status = StatusRunning
		j.started = time.Now()
		j.stolenBy = thief
		timeout := j.timeout
		j.mu.Unlock()
		s.nstats.stolen.Add(1)

		// Lost-thief guard: if the thief never reports back, resolve the
		// job after its deadline plus a grace period instead of leaking a
		// forever-running handle.
		go func() {
			grace := timeout + time.Minute
			t := time.NewTimer(grace)
			defer t.Stop()
			select {
			case <-j.done:
			case <-t.C:
				j.finish(StatusFailed, nil, errLost.Error())
			}
		}()

		writeJSON(w, http.StatusOK, cluster.StolenJob{
			ID:          j.id,
			Source:      j.src,
			Mode:        j.mode,
			MaxStates:   j.maxStates,
			TimeoutMs:   timeout.Milliseconds(),
			StaticPrune: j.staticPrune,
			Reduce:      j.reduce,
		})
		return
	}
}

// handlePushResult lands a thief's terminal status on the stolen job.
// Idempotent against races with local cancellation: finish keeps the
// first terminal status.
func (s *Server) handlePushResult(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	var pr cluster.PushedResult
	if err := json.NewDecoder(io.LimitReader(r.Body, peerBodyLimit)).Decode(&pr); err != nil {
		writeError(w, http.StatusBadRequest, "decoding pushed result: %v", err)
		return
	}
	switch pr.Status {
	case StatusDone:
		var res Result
		if err := json.Unmarshal(pr.Result, &res); err != nil {
			writeError(w, http.StatusBadRequest, "decoding pushed verdict: %v", err)
			return
		}
		j.finish(StatusDone, &res, "")
	case StatusCanceled:
		msg := pr.Error
		if msg == "" {
			msg = "canceled on the stealing peer"
		}
		j.finish(StatusCanceled, nil, msg)
	case StatusFailed:
		j.finish(StatusFailed, nil, pr.Error)
	default:
		writeError(w, http.StatusBadRequest, "bad pushed status %q", pr.Status)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// stealLoop polls peers for queued work while this node is idle: no
// queue, spare workers. One stolen job runs at a time — stealing is a
// gap-filler, not a second scheduler.
func (s *Server) stealLoop() {
	defer close(s.stealDone)
	t := time.NewTicker(s.cfg.StealInterval)
	defer t.Stop()
	rot := 0
	for {
		select {
		case <-s.stealStop:
			return
		case <-t.C:
		}
		if s.isDraining() {
			continue
		}
		queued, running := s.localLoad()
		if queued > 0 || running >= s.cfg.MaxJobs {
			continue
		}
		peers := s.cluster.Peers()
		if len(peers) == 0 {
			continue
		}
		rot++
		for i := 0; i < len(peers); i++ {
			m := peers[(rot+i)%len(peers)]
			spec, ok := s.trySteal(m)
			if ok {
				s.runStolen(m, spec)
				break
			}
		}
	}
}

// trySteal asks one peer for a queued job.
func (s *Server) trySteal(m cluster.Member) (cluster.StolenJob, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := s.cluster.Forward(ctx, m, http.MethodPost, "/v1/steal", "", nil)
	if err != nil {
		return cluster.StolenJob{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return cluster.StolenJob{}, false
	}
	var spec cluster.StolenJob
	if err := json.NewDecoder(io.LimitReader(resp.Body, peerBodyLimit)).Decode(&spec); err != nil ||
		spec.ID == "" || spec.Source == "" {
		return cluster.StolenJob{}, false
	}
	return spec, true
}

// runStolen verifies a stolen job locally and pushes the terminal status
// back to the victim. The verdict is also memoized here: the thief did
// the work, it may as well remember the answer.
func (s *Server) runStolen(victim cluster.Member, spec cluster.StolenJob) {
	s.nstats.steals.Add(1)
	push := cluster.PushedResult{Status: StatusFailed}

	p, err := parser.Parse(spec.Source)
	if err == nil {
		err = p.Validate()
	}
	if err != nil {
		push.Error = fmt.Sprintf("stolen source does not parse: %v", err)
	} else {
		j := &job{
			mode:        spec.Mode,
			prg:         p,
			maxStates:   spec.MaxStates,
			workers:     s.cfg.Workers,
			staticPrune: spec.StaticPrune,
			reduce:      spec.Reduce,
		}
		timeout := time.Duration(spec.TimeoutMs) * time.Millisecond
		if timeout <= 0 {
			timeout = s.cfg.DefaultTimeout
		}
		ctx, cancel := context.WithTimeoutCause(context.Background(), timeout, context.DeadlineExceeded)
		// Stolen work must not outlive the steal loop: Drain waits for it
		// via stopSteal, so a shutdown cancels the exploration promptly.
		watcherDone := make(chan struct{})
		go func() {
			select {
			case <-s.stealStop:
				cancel()
			case <-watcherDone:
			}
		}()
		res, verr := j.verify(ctx)
		cancel()
		close(watcherDone)
		switch {
		case verr == nil:
			if data, merr := json.Marshal(res); merr == nil {
				push = cluster.PushedResult{Status: StatusDone, Result: data}
				key := verkey.Key(prog.CanonicalDigest(p), spec.Mode, spec.MaxStates, spec.StaticPrune, spec.Reduce, false)
				s.memoize(key, res, true)
			} else {
				push.Error = merr.Error()
			}
		case errors.Is(verr, explore.ErrCanceled):
			push = cluster.PushedResult{Status: StatusCanceled, Error: fmt.Sprintf("canceled: %v", context.DeadlineExceeded)}
		default:
			push.Error = verr.Error()
		}
	}

	body, err := json.Marshal(push)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := s.cluster.Forward(ctx, victim, http.MethodPost, "/v1/jobs/"+spec.ID+"/result", "application/json", body)
	if err != nil {
		return // the victim's lost-thief guard resolves the job
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
