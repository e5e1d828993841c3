// Command mosaic-serve exposes a Mosaic database over HTTP/JSON — the
// network front door for the engine (POST /v1/query, POST /v1/exec,
// GET /v1/explain, /healthz, /statsz).
//
// Usage:
//
//	mosaic-serve [-addr :7171] [-snapshot state.sql] [-snapshot-interval 30s]
//	             [-max-concurrent 64] [-batch-max-concurrent 32]
//	             [-shed-margin 1.0] [-qos-config qos.json]
//	             [-request-timeout 30s]
//	             [-follow http://primary:7171] [-follow-interval 500ms]
//	             [-follow-staleness 10s] [-follow-boot-timeout 30s]
//	             [-seed N] [-open-samples N] [-swg-epochs N] [-workers N]
//	             [-shards N] [init.sql ...]
//
// With -snapshot, the server restores the file on boot (when present),
// rewrites it atomically every -snapshot-interval, and writes a final
// snapshot on SIGINT/SIGTERM before exiting — so a kill + restart preserves
// the catalog, rows, metadata, and sample weights exactly. Positional
// scripts run after the boot restore (useful to seed a fresh instance).
//
// With -follow, the process runs as a read-only follower replica: it
// bootstraps from the primary's GET /v1/snapshot, tails its statement log
// (GET /v1/snapshot/delta) every -follow-interval, refuses DDL/DML with
// 403, and reports replication lag in /statsz. The follower MUST run with
// the same -seed/-shards/-open-samples/-swg-epochs as its primary:
// statement replay is only bit-identical across identical engine Options.
// -follow excludes -snapshot and init scripts — a follower's state comes
// from its primary, nowhere else.
//
// -request-timeout is a real bound on server-side work, not just on the
// response: a request that exceeds it answers 504 AND is cancelled inside
// the engine (training, generation, fitting, and scans all checkpoint the
// request context), freeing its admission slot immediately. /statsz reports
// these under "cancelled". Clients can also cancel early by dropping the
// connection or using mosaic/client's *Context methods.
//
// # Quality of service
//
// Requests carry a priority class (X-Mosaic-Priority: interactive|batch;
// queries default by visibility) and optionally a propagated deadline
// (X-Mosaic-Deadline-Ms). -max-concurrent bounds total concurrency,
// -batch-max-concurrent caps the batch class so it can never starve
// interactive work, and -shed-margin scales the latency estimate used to
// refuse doomed requests up front (503 + Retry-After).
//
// SIGHUP reloads the QoS limits live, without dropping in-flight requests:
// with -qos-config the file ({"max_concurrent": N, "batch_max_concurrent":
// N, "shed_margin": F}) is re-read; without it SIGHUP reapplies the
// command-line values (a no-op, but confirms the handler in logs).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/repl"
	"mosaic/internal/server"
)

func main() {
	addr := flag.String("addr", ":7171", "listen address")
	snapshot := flag.String("snapshot", "", "snapshot file: restored on boot, rewritten on interval and shutdown")
	snapshotInterval := flag.Duration("snapshot-interval", 30*time.Second, "background snapshot period")
	maxConcurrent := flag.Int("max-concurrent", 64, "max concurrently executing requests (admission gate)")
	batchMaxConcurrent := flag.Int("batch-max-concurrent", 0, "max concurrently executing batch-class requests; 0 = max-concurrent/2")
	shedMargin := flag.Float64("shed-margin", 1.0, "shed a request when EWMA latency × margin exceeds its deadline budget; negative disables estimate-based shedding")
	qosConfig := flag.String("qos-config", "", "JSON file with QoS limits, re-read on SIGHUP (overrides the QoS flags)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline")
	follow := flag.String("follow", "", "primary base URL to replicate from; runs this process as a read-only follower")
	followInterval := flag.Duration("follow-interval", 500*time.Millisecond, "delta poll period in follower mode")
	followStaleness := flag.Duration("follow-staleness", 10*time.Second, "mark the follower degraded after this long without a successful sync (health only)")
	followBootTimeout := flag.Duration("follow-boot-timeout", 30*time.Second, "how long to wait for the primary to serve the initial bootstrap snapshot")
	seed := flag.Int64("seed", 1, "random seed driving IPF/M-SWG determinism")
	openSamples := flag.Int("open-samples", 10, "generated samples averaged per OPEN query")
	epochs := flag.Int("swg-epochs", 20, "M-SWG training epochs for OPEN queries")
	workers := flag.Int("workers", 0, "intra-query workers; 0 = all cores (GOMAXPROCS), answers are identical for any value")
	shards := flag.Int("shards", 1, "scatter-gather shards for CLOSED/SEMI-OPEN aggregates; 1 = unsharded; unlike -workers the value is part of the answer contract for float aggregates")
	stmtLog := flag.Int("stmt-log", 0, "mutations retained for follower replication deltas; 0 = default (1024), negative forces followers onto full snapshots")
	flag.Parse()

	db := mosaic.Open(&mosaic.Options{
		Seed:        *seed,
		OpenSamples: *openSamples,
		Workers:     *workers,
		Shards:      *shards,
		SWG:         mosaic.SWGConfig{Epochs: *epochs},
		StmtLogSize: *stmtLog,
	})

	flagQoS := server.QoSConfig{
		MaxConcurrent:      *maxConcurrent,
		BatchMaxConcurrent: *batchMaxConcurrent,
		ShedMargin:         *shedMargin,
	}
	bootQoS := flagQoS
	if *qosConfig != "" {
		q, err := loadQoS(*qosConfig, flagQoS)
		if err != nil {
			log.Fatalf("mosaic-serve: %v", err)
		}
		bootQoS = q
	}

	srvCfg := server.Config{
		DB:               db,
		QoS:              bootQoS,
		RequestTimeout:   *requestTimeout,
		SnapshotPath:     *snapshot,
		SnapshotInterval: *snapshotInterval,
		Logf:             log.Printf,
	}

	// Follower mode: the process's state comes from its primary and nowhere
	// else — local persistence and init scripts are contradictions, not
	// conveniences, so they are hard errors.
	var follower *repl.Follower
	if *follow != "" {
		if *snapshot != "" {
			log.Fatal("mosaic-serve: -follow excludes -snapshot (a follower's state comes from its primary)")
		}
		if flag.NArg() > 0 {
			log.Fatalf("mosaic-serve: -follow excludes init scripts %v (a follower's state comes from its primary)", flag.Args())
		}
		f, err := repl.NewFollower(repl.Config{
			Primary:      *follow,
			DB:           db,
			PollInterval: *followInterval,
			StalenessMax: *followStaleness,
			Retry:        client.RetryPolicy{},
			Logf:         log.Printf,
		})
		if err != nil {
			log.Fatalf("mosaic-serve: %v", err)
		}
		// The primary may still be booting: keep retrying the bootstrap
		// until it serves a snapshot or the boot window closes.
		bootCtx, bootCancel := context.WithTimeout(context.Background(), *followBootTimeout)
		for {
			err = f.Start(bootCtx)
			if err == nil {
				break
			}
			select {
			case <-bootCtx.Done():
				log.Fatalf("mosaic-serve: primary %s did not serve a bootstrap snapshot within %s: %v", *follow, *followBootTimeout, err)
			case <-time.After(250 * time.Millisecond):
			}
		}
		bootCancel()
		follower = f
		srvCfg.Follower = f
		log.Printf("mosaic-serve: following %s from generation %d", *follow, f.Generation())
	}

	srv, err := server.New(srvCfg)
	if err != nil {
		log.Fatalf("mosaic-serve: %v", err)
	}

	// Positional scripts seed a *fresh* instance. After a snapshot restore
	// the state they created is already present — replaying them would fail
	// on every CREATE (or silently duplicate rows), so they are skipped.
	if srv.Restored() && flag.NArg() > 0 {
		log.Printf("snapshot restored; skipping init scripts %v", flag.Args())
	} else {
		for _, path := range flag.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				log.Fatalf("mosaic-serve: %v", err)
			}
			if err := db.Exec(string(src)); err != nil {
				log.Fatalf("mosaic-serve: %s: %v", path, err)
			}
			log.Printf("executed %s", path)
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() {
		log.Printf("mosaic-serve listening on %s", *addr)
		err := httpSrv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		done <- err
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
loop:
	for {
		select {
		case err := <-done:
			if err != nil {
				log.Fatalf("mosaic-serve: %v", err)
			}
			break loop
		case s := <-sig:
			if s == syscall.SIGHUP {
				// Live QoS reload: in-flight requests are untouched; only
				// new admissions see the swapped limits.
				q := flagQoS
				if *qosConfig != "" {
					loaded, err := loadQoS(*qosConfig, flagQoS)
					if err != nil {
						log.Printf("SIGHUP: %v (keeping current limits)", err)
						continue
					}
					q = loaded
				}
				srv.ApplyQoS(q)
				q = srv.QoS()
				log.Printf("SIGHUP: QoS limits reloaded: max_concurrent=%d batch_max_concurrent=%d shed_margin=%g",
					q.MaxConcurrent, q.BatchMaxConcurrent, q.ShedMargin)
				continue
			}
			log.Printf("received %s, shutting down", s)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = httpSrv.Shutdown(ctx)
			cancel()
			break loop
		}
	}
	if follower != nil {
		follower.Close()
	}
	// Final snapshot (when configured): the restart-from-snapshot guarantee.
	if err := srv.Close(); err != nil {
		log.Fatalf("mosaic-serve: final snapshot: %v", err)
	}
	fmt.Fprintln(os.Stderr, "mosaic-serve: bye")
}

// loadQoS reads a QoS limits file, starting from the flag-derived defaults so
// a partial file (e.g. only shed_margin) keeps the rest.
func loadQoS(path string, base server.QoSConfig) (server.QoSConfig, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("qos-config: %v", err)
	}
	q := base
	if err := json.Unmarshal(src, &q); err != nil {
		return base, fmt.Errorf("qos-config %s: %v", path, err)
	}
	return q, nil
}
