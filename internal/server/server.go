// Package server wraps a mosaic.DB with an HTTP/JSON API: the network front
// door of the engine. Endpoints:
//
//	POST /v1/query   {"query": "SELECT ..."}    → {"columns": [...], "rows": [[...]]}
//	POST /v1/exec    {"script": "CREATE ...;"}  → {"results": [null | result, ...]}
//	GET  /v1/explain?q=SELECT ...               → plan description result
//	GET  /healthz                               → liveness
//	GET  /statsz                                → per-visibility and per-class counters + latency histograms
//	GET  /v1/snapshot                           → the dump script as text/plain, its generation in X-Mosaic-Generation, its format in X-Mosaic-Snapshot-Format
//	GET  /v1/snapshot/delta?from=G              → {"from": G, "generation": ..., "stmts": [...]}
//
// This package owns the request path of every Mosaic front door: the Kernel
// (kernel.go) decodes, classifies, sheds, admits, runs and answers each /v1
// request, for this Server and for the fleet coordinator (internal/coord)
// alike. Requests carry a priority class (X-Mosaic-Priority:
// interactive|batch; queries default by visibility — OPEN is batch,
// everything else interactive) and optionally a propagated client deadline
// (X-Mosaic-Deadline-Ms), intersected with RequestTimeout. The kernel:
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
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
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
	// QoS holds the boot admission limits and shed threshold: how many /v1
	// requests execute at once (excess requests wait for a slot until their
	// timeout), how many of them may be batch-class, and when a request's
	// deadline is not worth admitting (503 + Retry-After, before any engine
	// work). Its zero fields take QoSConfig's defaults; ApplyQoS replaces it
	// at runtime.
	QoS QoSConfig
	// RequestTimeout bounds each /v1 request (admission wait + execution),
	// intersected with any client-propagated X-Mosaic-Deadline-Ms. Default 30s.
	RequestTimeout time.Duration
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

// planCacheSize bounds the server-side prepared-plan cache (distinct query
// texts).
const planCacheSize = 256

func (c Config) withDefaults() Config {
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the HTTP front end of one mosaic.DB. Its /v1 endpoints are
// Calls answered through the embedded Kernel.
type Server struct {
	*Kernel
	cfg   Config
	db    *mosaic.DB
	stats *stats
	plans *core.PlanCache
	mux   *http.ServeMux

	stopOnce sync.Once
	stopSnap chan struct{}
	snapWG   sync.WaitGroup
	snapMu   sync.Mutex // serializes SnapshotNow against the background loop

	restored bool // a boot snapshot was loaded
}

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
	k := NewKernel(cfg.QoS, cfg.RequestTimeout)
	s := &Server{
		Kernel:   k,
		cfg:      cfg,
		db:       cfg.DB,
		stats:    newStats(k),
		plans:    core.NewPlanCache(planCacheSize),
		mux:      http.NewServeMux(),
		stopSnap: make(chan struct{}),
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

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	s.Serve(w, r, http.MethodPost, &req, func() (Class, Call, error) {
		// Plan-cache lookup before parsing: a hit skips parse + plan entirely
		// (the PreparedQuery re-resolves itself if DDL/DML moved the
		// generation counter, so hits are never stale).
		eng := s.db.Engine()
		sel, pq, _ := s.plans.Lookup(eng, req.Query)
		if sel == nil {
			parsed, err := sql.ParseQuery(req.Query)
			if err != nil {
				return 0, nil, Errorf(http.StatusBadRequest, "%v", err)
			}
			sel, pq = parsed, s.plans.Store(eng, req.Query, parsed)
		}
		bound, err := BindParams(sel, req.Params)
		if err != nil {
			return 0, nil, err
		}
		vis := bound.Visibility
		return QueryClass(vis), func(ctx context.Context) (any, error) {
			// Generation-checked reads bracket execution: refuse before
			// starting when the serving state is not at the requested
			// generation, and refuse the computed answer when the generation
			// moved (or a follower delta was mid-apply) underneath it. Any
			// query that could have observed a different or intermediate
			// state fails one of the two checks — the gate that makes replica
			// answers bit-identical to the primary's at the same generation.
			if req.CheckGeneration {
				if g, ok := s.fleetGen(); !ok || g != req.Generation {
					return nil, Errorf(http.StatusConflict, "serving generation %d, coordinator expected %d: state diverged from the fleet", g, req.Generation)
				}
				// Re-capture the engine AFTER the generation check: a
				// follower re-bootstrap (Restore) swaps the engine pointer,
				// and executing against the pre-swap engine would pass both
				// generation checks while reading outdated state. Captured
				// after g1, any later swap moves the generation and the
				// post-execution check refuses.
				if cur := s.db.Engine(); cur != eng {
					eng, pq = cur, nil
				}
			}
			start := time.Now()
			// Query the engine with the already-parsed statement (db.Query
			// would re-parse the string); through the prepared plan when
			// cached.
			var res *exec.Result
			var qerr error
			if pq != nil {
				res, qerr = eng.QueryPrepared(ctx, pq, bound)
			} else {
				res, qerr = eng.QueryContext(ctx, bound)
			}
			s.stats.recordQuery(vis, time.Since(start), qerr)
			if qerr != nil {
				return nil, Errorf(http.StatusUnprocessableEntity, "%v", qerr)
			}
			if req.CheckGeneration {
				if g, ok := s.fleetGen(); !ok || g != req.Generation {
					return nil, Errorf(http.StatusConflict, "generation moved to %d during a generation-%d read: answer discarded", g, req.Generation)
				}
			}
			return wire.EncodeResult(res), nil
		}, nil
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
	var req wire.PartialRequest
	s.Serve(w, r, http.MethodPost, &req, func() (Class, Call, error) {
		if req.Shards < 1 || req.Shard < 0 || req.Shard >= req.Shards {
			return 0, nil, Errorf(http.StatusBadRequest, "shard %d of %d out of range", req.Shard, req.Shards)
		}
		sel, err := sql.ParseQuery(req.Query)
		if err != nil {
			return 0, nil, Errorf(http.StatusBadRequest, "%v", err)
		}
		bound, err := BindParams(sel, req.Params)
		if err != nil {
			return 0, nil, err
		}
		// Partials serve only CLOSED/SEMI-OPEN aggregates (any other shape
		// is a 400), so the class is interactive, like the equivalent
		// /v1/query.
		return Interactive, func(ctx context.Context) (any, error) {
			// In follower mode the local engine counter is meaningless
			// (replay renumbers it); generation-checked partials bracket
			// execution on the replicated generation instead, and the engine
			// is captured after the first check so a concurrent re-bootstrap
			// cannot slip an outdated engine past both checks.
			if req.CheckGeneration && s.cfg.Follower != nil {
				if g, ok := s.fleetGen(); !ok || g != req.Generation {
					return nil, Errorf(http.StatusConflict, "follower at generation %d, coordinator expected %d: replica state diverged from the fleet", g, req.Generation)
				}
			}
			eng := s.db.Engine()
			p, gen, handled, perr := eng.PartialContext(ctx, bound, req.Shard, req.Shards)
			if s.cfg.Follower != nil {
				g, ok := s.fleetGen()
				if req.CheckGeneration && (!ok || g != req.Generation) {
					return nil, Errorf(http.StatusConflict, "follower generation moved to %d during a generation-%d partial: answer discarded", g, req.Generation)
				}
				gen = g // report the replicated generation, not the local counter
			}
			if req.CheckGeneration && gen != req.Generation {
				return nil, Errorf(http.StatusConflict, "shard at generation %d, coordinator expected %d: shard state diverged from the fleet", gen, req.Generation)
			}
			if perr != nil {
				s.stats.recordCancelled(perr)
				return nil, Errorf(http.StatusUnprocessableEntity, "%v", perr)
			}
			if !handled {
				// The coordinator passes every other query through whole
				// and never asks for its partial.
				return nil, Errorf(http.StatusBadRequest, "partial: only a CLOSED or SEMI-OPEN aggregate query has partial states")
			}
			s.stats.partials.Add(1)
			return wire.EncodePartial(p, gen)
		}, nil
	})
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req wire.ExecRequest
	s.Serve(w, r, http.MethodPost, &req, func() (Class, Call, error) {
		if s.cfg.Follower != nil {
			return 0, nil, Errorf(http.StatusForbidden,
				"read-only follower replicating from %s: DDL/DML is not accepted here — write to the primary", s.cfg.Follower.Stats().Primary)
		}
		// Scripts can carry arbitrary DDL/DML and heavy SELECTs: batch
		// class unless the client says otherwise.
		return Batch, func(ctx context.Context) (any, error) {
			s.stats.execs.Add(1)
			results, err := s.db.RunContext(ctx, req.Script)
			if err != nil {
				s.stats.recordCancelled(err)
				return nil, Errorf(http.StatusUnprocessableEntity, "%v", err)
			}
			out := wire.ExecResponse{Results: make([]*wire.Result, len(results))}
			for i, res := range results {
				out.Results[i] = wire.EncodeResult(res)
			}
			// The post-script generation is the fleet coordinator's
			// handshake: every shard must land on the same counter after a
			// fanned-out exec.
			out.Generation = s.db.Engine().Generation()
			return out, nil
		}, nil
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.Serve(w, r, http.MethodGet, nil, func() (Class, Call, error) {
		sel, err := ParseExplain(r)
		if err != nil {
			return 0, nil, err
		}
		// EXPLAIN plans without executing; nothing long-running to cancel.
		return Interactive, func(context.Context) (any, error) {
			s.stats.explains.Add(1)
			res, err := s.db.Engine().Explain(sel)
			if err != nil {
				return nil, Errorf(http.StatusUnprocessableEntity, "%v", err)
			}
			return wire.EncodeResult(res), nil
		}, nil
	})
}

// ParseExplain reads and parses the ?q= query of a GET /v1/explain; a
// missing or unparseable query is a 400.
func ParseExplain(r *http.Request) (*sql.Select, error) {
	q := r.URL.Query().Get("q")
	if q == "" {
		return nil, Errorf(http.StatusBadRequest, "missing ?q=SELECT ...")
	}
	sel, err := sql.ParseQuery(q)
	if err != nil {
		return nil, Errorf(http.StatusBadRequest, "%v", err)
	}
	return sel, nil
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
	h.Set(wire.SnapshotFormatHeader, wire.SnapshotFormat)
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
	w.Header().Set(wire.SnapshotFormatHeader, wire.SnapshotFormat)
	WriteJSON(w, http.StatusOK, out)
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
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := s.stats.snapshot(s.plans)
	out.AdmissionStats = s.AdmissionStats()
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
	WriteJSON(w, http.StatusOK, out)
}
