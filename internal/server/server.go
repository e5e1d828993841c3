// Package server wraps a mosaic.DB with an HTTP/JSON API: the network front
// door of the engine. Endpoints:
//
//	POST /v1/query   {"query": "SELECT ..."}    → {"columns": [...], "rows": [[...]]}
//	POST /v1/exec    {"script": "CREATE ...;"}  → {"results": [null | result, ...]}
//	GET  /v1/explain?q=SELECT ...               → plan description result
//	GET  /healthz                               → liveness
//	GET  /statsz                                → per-visibility and per-class counters + latency histograms
//	GET  /v1/snapshot                           → the dump script as text/plain, its generation in X-Mosaic-Generation
//	GET  /v1/snapshot/delta?from=G              → {"from": G, "generation": ..., "stmts": [...]}
//
// Every /v1 request passes a priority-aware admission controller before any
// work starts. Requests carry a priority class (X-Mosaic-Priority:
// interactive|batch; queries default by visibility — OPEN is batch,
// everything else interactive) and optionally a propagated client deadline
// (X-Mosaic-Deadline-Ms), intersected with RequestTimeout. The controller:
//
//   - sheds work it cannot finish — budget already spent, or the per-class
//     EWMA latency estimate exceeds the remaining budget — with
//     503 + Retry-After BEFORE execution starts (zero engine work);
//   - bounds per-class concurrency (batch can never occupy every slot) and
//     hands freed slots to interactive waiters first;
//   - answers 503 + Retry-After when no slot frees within the deadline, and
//     504 when an admitted request exceeds it mid-execution.
//
// Every rejection is a distinct counter in /statsz, split by class. The
// request context threads into the engine, so a timed-out or
// client-cancelled request actually aborts the server-side work — M-SWG
// training, OPEN replicate generation, IPF fitting, and executor scans all
// checkpoint the context — and the admission slot frees as soon as the
// engine unwinds (/statsz counts these under "cancelled").
//
// A bounded LRU plan cache keyed by query text gives every client amortized
// parse + plan without holding a Stmt: cached plans self-invalidate via the
// engine's DDL/DML generation counter, so a hit is never stale. Values
// travel in the exact wire encoding of internal/wire, so a client decodes
// answers byte-for-byte identical to an in-process engine's.
//
// The admission limits and shed threshold reload at runtime (ApplyQoS —
// mosaic-serve wires it to SIGHUP) without dropping in-flight requests.
//
// When SnapshotPath is set the server restores it on boot (if present),
// rewrites it atomically every SnapshotInterval, and again on Close — the
// crash-recovery story of mosaic-serve.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mosaic"
	"mosaic/internal/core"
	"mosaic/internal/exec"
	"mosaic/internal/sql"
	"mosaic/internal/wire"
)

// Config configures a Server.
type Config struct {
	// DB is the engine to serve. Required.
	DB *mosaic.DB
	// MaxConcurrent bounds the number of /v1 requests executing at once;
	// excess requests wait for a slot until their timeout. Default 64.
	MaxConcurrent int
	// BatchMaxConcurrent bounds concurrently executing batch-class requests
	// (OPEN queries, exec scripts) so batch work can never occupy every
	// slot. Default max(1, MaxConcurrent/2); clamped below MaxConcurrent.
	BatchMaxConcurrent int
	// ShedMargin scales the per-class EWMA latency estimate when deciding
	// whether a request's deadline is worth admitting: the request is shed
	// (503 + Retry-After, before any engine work) when estimate×margin
	// exceeds its remaining budget. Default 1.0; negative disables
	// estimate-based shedding (already-expired deadlines still shed).
	ShedMargin float64
	// RequestTimeout bounds each /v1 request (admission wait + execution),
	// intersected with any client-propagated X-Mosaic-Deadline-Ms. Default 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (413 beyond it). Default
	// wire.MaxBodyBytes, the fleet coordinator's cap.
	MaxBodyBytes int64
	// PlanCacheSize bounds the server-side prepared-plan cache (distinct
	// query texts). Default 256; negative disables the cache.
	PlanCacheSize int
	// SnapshotPath, when non-empty, enables persistence: restored on boot,
	// written atomically every SnapshotInterval and on Close.
	SnapshotPath string
	// SnapshotInterval is the background snapshot period. Default 30s
	// (only meaningful with SnapshotPath).
	SnapshotInterval time.Duration
	// Follower, when non-nil, runs the server in read-only follower mode:
	// DDL/DML (/v1/exec) answers 403, the snapshot endpoints are refused
	// (a follower is not a replication source), and generation-checked
	// reads gate on the replicated primary generation this hook reports
	// instead of the local engine counter. internal/repl's Follower
	// implements it.
	Follower FollowerState
	// Logf receives operational log lines. Default: discard.
	Logf func(format string, args ...any)
}

// FollowerState is the replication view a follower-mode server consults on
// every generation-checked read and when reporting /statsz and /healthz.
type FollowerState interface {
	// ReplicatedGeneration returns the primary generation the local state
	// corresponds to, and false while a delta is mid-apply (the state is
	// between generations and must not serve generation-checked reads).
	ReplicatedGeneration() (uint64, bool)
	// Stats reports replication progress.
	Stats() wire.FollowerStats
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = wire.MaxBodyBytes
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// qos extracts the live-reloadable slice of the configuration.
func (c Config) qos() QoSConfig {
	return QoSConfig{
		MaxConcurrent:      c.MaxConcurrent,
		BatchMaxConcurrent: c.BatchMaxConcurrent,
		ShedMargin:         c.ShedMargin,
	}.withDefaults()
}

// Server is the HTTP front end of one mosaic.DB.
type Server struct {
	cfg   Config
	db    *mosaic.DB
	stats *stats
	adm   *admission
	plans *core.PlanCache // nil when disabled
	mux   *http.ServeMux

	qosMu      sync.Mutex
	qosCur     QoSConfig
	shedMargin atomic64f

	stopOnce sync.Once
	stopSnap chan struct{}
	snapWG   sync.WaitGroup
	snapMu   sync.Mutex // serializes SnapshotNow against the background loop

	restored bool // a boot snapshot was loaded
}

// atomic64f is a float64 stored in a uint64 atomic (the shed margin is read
// on every request and swapped by ApplyQoS).
type atomic64f struct{ bits atomic.Uint64 }

func (a *atomic64f) store(f float64) { a.bits.Store(math.Float64bits(f)) }
func (a *atomic64f) load() float64   { return math.Float64frombits(a.bits.Load()) }

// Restored reports whether New loaded an existing snapshot on boot. Callers
// that seed a fresh instance (e.g. mosaic-serve's positional init scripts)
// should skip seeding when true — the snapshot already contains it.
func (s *Server) Restored() bool { return s.restored }

// New builds a Server, restoring cfg.SnapshotPath first when it exists, and
// starts the background snapshot loop when persistence is configured.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: Config.DB is required")
	}
	qos := cfg.qos()
	s := &Server{
		cfg:      cfg,
		db:       cfg.DB,
		stats:    newStats(),
		adm:      newAdmission(qos),
		mux:      http.NewServeMux(),
		qosCur:   qos,
		stopSnap: make(chan struct{}),
	}
	s.shedMargin.store(qos.ShedMargin)
	if cfg.PlanCacheSize > 0 {
		s.plans = core.NewPlanCache(cfg.PlanCacheSize)
	}
	if cfg.SnapshotPath != "" {
		if _, err := os.Stat(cfg.SnapshotPath); err == nil {
			if err := s.db.LoadSnapshot(cfg.SnapshotPath); err != nil {
				return nil, fmt.Errorf("server: boot restore: %w", err)
			}
			s.restored = true
			cfg.Logf("restored snapshot %s", cfg.SnapshotPath)
		} else if !os.IsNotExist(err) {
			return nil, fmt.Errorf("server: snapshot path: %w", err)
		}
		s.snapWG.Add(1)
		go s.snapshotLoop()
	}
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/partial", s.handlePartial)
	s.mux.HandleFunc("/v1/exec", s.handleExec)
	s.mux.HandleFunc("/v1/explain", s.handleExplain)
	s.mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/v1/snapshot/delta", s.handleSnapshotDelta)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/statsz", s.handleStats)
	return s, nil
}

// fleetGen returns the generation that generation-checked reads gate on: the
// replicated primary generation in follower mode (ok=false while a delta is
// mid-apply), the local engine generation otherwise.
func (s *Server) fleetGen() (uint64, bool) {
	if s.cfg.Follower != nil {
		return s.cfg.Follower.ReplicatedGeneration()
	}
	return s.db.Engine().Generation(), true
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ApplyQoS swaps the admission limits and shed threshold at runtime without
// dropping in-flight requests: work already admitted runs to completion, a
// raised limit wakes waiters immediately, a lowered one only throttles new
// admissions. mosaic-serve calls this on SIGHUP.
func (s *Server) ApplyQoS(q QoSConfig) {
	q = q.withDefaults()
	s.qosMu.Lock()
	s.qosCur = q
	s.qosMu.Unlock()
	s.shedMargin.store(q.ShedMargin)
	s.adm.setLimits(q)
	s.cfg.Logf("qos: max_concurrent=%d batch_max_concurrent=%d shed_margin=%g",
		q.MaxConcurrent, q.BatchMaxConcurrent, q.ShedMargin)
}

// QoS returns the currently effective admission configuration.
func (s *Server) QoS() QoSConfig {
	s.qosMu.Lock()
	defer s.qosMu.Unlock()
	return s.qosCur
}

// Close stops the snapshot loop and writes a final snapshot (when
// persistence is configured).
func (s *Server) Close() error {
	var err error
	s.stopOnce.Do(func() {
		close(s.stopSnap)
		s.snapWG.Wait()
		if s.cfg.SnapshotPath != "" {
			err = s.SnapshotNow()
		}
	})
	return err
}

// SnapshotNow writes one atomic snapshot immediately.
func (s *Server) SnapshotNow() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if err := s.db.SaveSnapshot(s.cfg.SnapshotPath); err != nil {
		return err
	}
	s.stats.snapshots.Add(1)
	s.stats.lastSnapshotUnix.Store(time.Now().Unix())
	if fi, err := os.Stat(s.cfg.SnapshotPath); err == nil {
		s.stats.lastSnapshotSize.Store(fi.Size())
	}
	return nil
}

func (s *Server) snapshotLoop() {
	defer s.snapWG.Done()
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.SnapshotNow(); err != nil {
				s.cfg.Logf("snapshot: %v", err)
			}
		case <-s.stopSnap:
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, wire.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSecs derives the Retry-After hint from the class's latency
// estimate: roughly one expected request duration, at least one second.
func (s *Server) retryAfterSecs(cl class) int {
	secs := int(math.Ceil(s.stats.classes[cl].estimate().Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeUnavailable answers 503 with a Retry-After hint — the contract for
// both shed (deadline unmeetable) and rejected (no slot) outcomes.
func (s *Server) writeUnavailable(w http.ResponseWriter, cl class, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs(cl)))
	writeError(w, http.StatusServiceUnavailable, format, args...)
}

// run executes fn for priority class cl under the admission controller and
// the per-request deadline (RequestTimeout intersected with any propagated
// X-Mosaic-Deadline-Ms). Outcomes:
//
//	503 + Retry-After — shed before any work: the budget is already spent,
//	                    or the class's EWMA latency estimate says the
//	                    deadline cannot be met;
//	503 + Retry-After — no slot freed within the deadline;
//	504               — admitted but the deadline expired mid-execution; the
//	                    statement is cancelled server-side (the engine
//	                    unwinds at its next checkpoint and the slot frees).
//
// fn receives the request context and must pass it into the engine.
func (s *Server) run(w http.ResponseWriter, r *http.Request, cl class, fn func(ctx context.Context) (any, int)) {
	timeout := s.cfg.RequestTimeout
	budget, ok, err := deadlineFromHeader(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if ok {
		if budget <= 0 {
			s.stats.recordShed(cl)
			s.writeUnavailable(w, cl, "deadline already expired (budget %s); shed before execution", budget)
			return
		}
		if budget < timeout {
			timeout = budget
		}
	}
	// Estimate-based shedding: admitting work whose deadline the recent
	// latency EWMA says cannot be met only burns CPU toward a guaranteed
	// 504 — refuse it up front instead, with a Retry-After hint.
	if margin := s.shedMargin.load(); margin > 0 {
		if est := s.stats.classes[cl].estimate(); est > 0 && time.Duration(float64(est)*margin) > timeout {
			s.stats.recordShed(cl)
			s.writeUnavailable(w, cl, "%s budget %s below the estimated latency %s; shed before execution",
				cl, timeout.Round(time.Millisecond), est.Round(time.Millisecond))
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if !s.adm.acquire(ctx, cl) {
		s.stats.recordRejected(cl)
		s.writeUnavailable(w, cl, "server overloaded: no %s slot within %s", cl, timeout)
		return
	}
	s.stats.classes[cl].admitted.Add(1)
	s.stats.inflight.Add(1)
	start := time.Now()
	type outcome struct {
		body   any
		status int
	}
	done := make(chan outcome, 1)
	go func() {
		defer s.adm.release(cl)
		defer s.stats.inflight.Add(-1)
		body, status := fn(ctx)
		done <- outcome{body, status}
	}()
	select {
	case out := <-done:
		s.stats.classes[cl].observe(time.Since(start))
		if out.status >= 400 {
			if msg, ok := out.body.(string); ok {
				writeError(w, out.status, "%s", msg)
				return
			}
		}
		writeJSON(w, out.status, out.body)
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The class estimate must reflect expiries too, or a saturated
			// class keeps a rosy EWMA and the shedder never engages. Client
			// cancellations must NOT feed it: a cancel storm of fast aborts
			// would drag the EWMA down and disarm the shedder exactly when
			// real completions are slow.
			s.stats.classes[cl].observe(time.Since(start))
			s.stats.recordTimeout(cl)
			writeError(w, http.StatusGatewayTimeout, "request exceeded %s (the statement was cancelled server-side)", timeout)
			return
		}
		// Client went away: nobody reads the response; the engine-side
		// unwinding records the cancellation (recordQuery/recordCancelled).
		writeError(w, http.StatusServiceUnavailable, "client cancelled")
	}
}

// decodeBody decodes a JSON request body under the MaxBodyBytes cap,
// answering 413 for oversized bodies and 400 for malformed ones. It reports
// whether decoding succeeded; on false the response has been written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", mbe.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// classForVisibility derives the default priority class of a query: OPEN
// queries train and sample generative models — batch; CLOSED and SEMI-OPEN
// answer from stored samples — interactive.
func classForVisibility(vis sql.Visibility) class {
	if vis == sql.VisibilityOpen {
		return classBatch
	}
	return classInteractive
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req wire.QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Plan-cache lookup before parsing: a hit skips parse + plan entirely
	// (the PreparedQuery re-resolves itself if DDL/DML moved the generation
	// counter, so hits are never stale).
	eng := s.db.Engine()
	var sel *sql.Select
	var pq *core.PreparedQuery
	if s.plans != nil {
		sel, pq, _ = s.plans.Lookup(eng, req.Query)
	}
	if sel == nil {
		parsed, err := sql.ParseQuery(req.Query)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		sel = parsed
		if s.plans != nil {
			pq = s.plans.Store(eng, req.Query, sel)
		}
	}
	params, err := wire.DecodeValues(req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	bound, err := sql.BindParams(sel, params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	vis := bound.Visibility
	cl, err := classFromHeader(r, classForVisibility(vis))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.run(w, r, cl, func(ctx context.Context) (any, int) {
		// Generation-checked reads bracket execution: refuse before starting
		// when the serving state is not at the requested generation, and
		// refuse the computed answer when the generation moved (or a follower
		// delta was mid-apply) underneath it. Any query that could have
		// observed a different or intermediate state fails one of the two
		// checks — the gate that makes replica answers bit-identical to the
		// primary's at the same generation.
		if req.CheckGeneration {
			if g, ok := s.fleetGen(); !ok || g != req.Generation {
				return fmt.Sprintf("serving generation %d, coordinator expected %d: state diverged from the fleet", g, req.Generation), http.StatusConflict
			}
			// Re-capture the engine AFTER the generation check: a follower
			// re-bootstrap (Restore) swaps the engine pointer, and executing
			// against the pre-swap engine would pass both generation checks
			// while reading outdated state. Captured after g1, any later swap
			// moves the generation and the post-execution check refuses.
			if cur := s.db.Engine(); cur != eng {
				eng, pq = cur, nil
			}
		}
		start := time.Now()
		// Query the engine with the already-parsed statement (db.Query would
		// re-parse the string); through the prepared plan when cached.
		var res *exec.Result
		var qerr error
		if pq != nil {
			res, qerr = eng.QueryPrepared(ctx, pq, bound)
		} else {
			res, qerr = eng.QueryContext(ctx, bound)
		}
		s.stats.recordQuery(vis, time.Since(start), qerr)
		if qerr != nil {
			return qerr.Error(), http.StatusUnprocessableEntity
		}
		if req.CheckGeneration {
			if g, ok := s.fleetGen(); !ok || g != req.Generation {
				return fmt.Sprintf("generation moved to %d during a generation-%d read: answer discarded", g, req.Generation), http.StatusConflict
			}
		}
		return wire.EncodeResult(res), http.StatusOK
	})
}

// handlePartial serves one shard's half of a fleet scatter: it executes the
// per-shard partial aggregate plan over this process's full data copy and
// returns the serialized partial states. With check_generation set, the
// request carries the coordinator's view of the fleet's DDL/DML generation;
// a mismatch answers 409 Conflict — this shard's data diverged from the
// fleet, and serving a partial from it could silently corrupt a merged
// answer. The generation is read under the engine lock the partial executes
// under, so the check cannot race a concurrent mutation.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req wire.PartialRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Shards < 1 || req.Shard < 0 || req.Shard >= req.Shards {
		writeError(w, http.StatusBadRequest, "shard %d of %d out of range", req.Shard, req.Shards)
		return
	}
	sel, err := sql.ParseQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	params, err := wire.DecodeValues(req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	bound, err := sql.BindParams(sel, params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Partials serve only CLOSED/SEMI-OPEN aggregates (OPEN is unhandled),
	// so the default class is interactive, like the equivalent /v1/query.
	cl, err := classFromHeader(r, classInteractive)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.run(w, r, cl, func(ctx context.Context) (any, int) {
		// In follower mode the local engine counter is meaningless (replay
		// renumbers it); generation-checked partials bracket execution on the
		// replicated generation instead, and the engine is captured after the
		// first check so a concurrent re-bootstrap cannot slip an outdated
		// engine past both checks.
		if req.CheckGeneration && s.cfg.Follower != nil {
			if g, ok := s.fleetGen(); !ok || g != req.Generation {
				return fmt.Sprintf("follower at generation %d, coordinator expected %d: replica state diverged from the fleet", g, req.Generation), http.StatusConflict
			}
		}
		eng := s.db.Engine()
		p, gen, handled, perr := eng.PartialContext(ctx, bound, req.Shard, req.Shards)
		if s.cfg.Follower != nil {
			g, ok := s.fleetGen()
			if req.CheckGeneration && (!ok || g != req.Generation) {
				return fmt.Sprintf("follower generation moved to %d during a generation-%d partial: answer discarded", g, req.Generation), http.StatusConflict
			}
			gen = g // report the replicated generation, not the local counter
		}
		if req.CheckGeneration && gen != req.Generation {
			return fmt.Sprintf("shard at generation %d, coordinator expected %d: shard state diverged from the fleet", gen, req.Generation), http.StatusConflict
		}
		if perr != nil {
			s.stats.recordCancelled(perr)
			return perr.Error(), http.StatusUnprocessableEntity
		}
		if !handled {
			return &wire.PartialResponse{Handled: false, Generation: gen}, http.StatusOK
		}
		s.stats.partials.Add(1)
		resp, eerr := wire.EncodePartial(p, gen)
		if eerr != nil {
			return eerr.Error(), http.StatusInternalServerError
		}
		return resp, http.StatusOK
	})
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.cfg.Follower != nil {
		writeError(w, http.StatusForbidden,
			"read-only follower replicating from %s: DDL/DML is not accepted here — write to the primary", s.cfg.Follower.Stats().Primary)
		return
	}
	var req wire.ExecRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Scripts can carry arbitrary DDL/DML and heavy SELECTs: batch class
	// unless the client says otherwise.
	cl, err := classFromHeader(r, classBatch)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.run(w, r, cl, func(ctx context.Context) (any, int) {
		s.stats.execs.Add(1)
		results, err := s.db.RunContext(ctx, req.Script)
		if err != nil {
			s.stats.recordCancelled(err)
			return err.Error(), http.StatusUnprocessableEntity
		}
		out := wire.ExecResponse{Results: make([]*wire.Result, len(results))}
		for i, res := range results {
			out.Results[i] = wire.EncodeResult(res)
		}
		// The post-script generation is the fleet coordinator's handshake:
		// every shard must land on the same counter after a fanned-out exec.
		out.Generation = s.db.Engine().Generation()
		return out, http.StatusOK
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing ?q=SELECT ...")
		return
	}
	sel, err := sql.ParseQuery(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cl, err := classFromHeader(r, classInteractive)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.run(w, r, cl, func(ctx context.Context) (any, int) {
		_ = ctx // EXPLAIN plans without executing; nothing long-running to cancel
		s.stats.explains.Add(1)
		res, err := s.db.Engine().Explain(sel)
		if err != nil {
			return err.Error(), http.StatusUnprocessableEntity
		}
		return wire.EncodeResult(res), http.StatusOK
	})
}

// handleSnapshot serves GET /v1/snapshot, for follower bootstrap: the full
// dump script as a text/plain body with its Content-Length, and the
// generation it captures in the X-Mosaic-Generation header. It bypasses
// admission — replication is control-plane traffic, and shedding a
// bootstrap during overload would wedge the replica fleet exactly when read
// capacity is needed most.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.cfg.Follower != nil {
		writeError(w, http.StatusForbidden, "followers are not replication sources: snapshot from the primary")
		return
	}
	script, gen, err := s.db.Engine().DumpWithGeneration()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(script)))
	h.Set(wire.GenerationHeader, strconv.FormatUint(gen, 10))
	w.WriteHeader(http.StatusOK)
	// A failed write means the follower hung up; its length check fails
	// the fetch on its side.
	_, _ = io.WriteString(w, script)
}

// handleSnapshotDelta serves GET /v1/snapshot/delta?from=G: the statement
// suffix advancing generation G to the current one. 410 Gone means G fell
// out of the bounded statement log (or the range crosses a non-replayable
// mutation) and the follower must re-bootstrap from /v1/snapshot.
func (s *Server) handleSnapshotDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.cfg.Follower != nil {
		writeError(w, http.StatusForbidden, "followers are not replication sources: snapshot from the primary")
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "missing or malformed ?from=GENERATION: %v", err)
		return
	}
	stmts, cur, err := s.db.Engine().DeltaScript(from)
	if err != nil {
		if errors.Is(err, core.ErrLogTruncated) {
			writeError(w, http.StatusGone,
				"generation %d is outside the statement log (current %d): re-bootstrap from /v1/snapshot", from, cur)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := wire.DeltaResponse{From: from, Generation: cur}
	if len(stmts) > 0 {
		out.Stmts = make([]wire.DeltaStmt, len(stmts))
		for i, st := range stmts {
			out.Stmts[i] = wire.DeltaStmt{Src: st.Src, Failed: st.Failed}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	out := wire.HealthResponse{
		Status:     "ok",
		UptimeSecs: time.Since(s.stats.started).Seconds(),
	}
	if s.cfg.Follower != nil {
		fs := s.cfg.Follower.Stats()
		out.Follower = &fs
		if fs.Stale {
			out.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := s.stats.snapshot(s.adm, s.plans)
	out.Generation = s.db.Engine().Generation()
	if s.cfg.Follower != nil {
		// Report the replicated primary generation — the value the
		// coordinator's replica poller gates read routing on — not the local
		// replay counter.
		fs := s.cfg.Follower.Stats()
		out.Follower = &fs
		out.Generation = fs.Generation
	}
	// The model cache and the per-shard scan counters live on the engine
	// (the server has no view of either); merge them in once an OPEN or
	// SEMI-OPEN read has run, and when sharding is on.
	eng := s.db.Engine()
	if mc := eng.ModelCacheStats(); mc != (core.ModelCacheStats{}) {
		out.ModelCache = &wire.ModelCacheStats{Hits: mc.Hits, Revalidated: mc.Revalidated, Trained: mc.Trained, Fitted: mc.Fitted}
	}
	if eng.Shards() > 1 {
		out.Sharding = &wire.ShardStats{
			Shards: eng.Shards(),
			Scans:  eng.ShardScans(),
			Rows:   eng.ShardRows(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}
