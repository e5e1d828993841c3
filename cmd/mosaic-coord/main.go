// Command mosaic-coord fronts a fleet of mosaic-serve shard processes with
// one coordinator endpoint speaking the same wire protocol (POST /v1/query,
// POST /v1/exec, GET /v1/explain, /healthz, /statsz).
//
// Usage:
//
//	mosaic-coord -shards http://h1:7171,http://h2:7171[,...]
//	             [-replicas 0=http://h1r:7173,1=http://h2r:7173[,...]]
//	             [-addr :7172] [-request-timeout 30s]
//	             [-retries 3] [-boot-timeout 30s]
//	             [-replica-poll 250ms]
//
// -replicas registers read-only follower processes (mosaic-serve -follow)
// per shard index: reads balance across each shard's primary and its
// caught-up replicas by EWMA latency and fail over between them, while
// writes fan out to primaries only. The whole topology is validated at
// boot: every URL needs an http(s) scheme and host, replica indices must
// address a configured shard, and no URL may serve two roles.
//
// Every shard holds the full dataset: /v1/exec scripts fan out to all shards
// under a generation handshake, and CLOSED/SEMI-OPEN aggregate queries
// scatter as per-shard partial plans (shard i computes slice i of N over its
// copy) whose states merge in the fixed -shards order — so fleet answers are
// bit-identical to a single engine opened with Options.Shards: N, and a
// one-shard fleet is byte-identical to the row engine. OPEN and
// non-aggregate queries pass through whole to the first shard.
//
// On boot the coordinator probes every shard until the fleet agrees on one
// DDL/DML generation (or -boot-timeout expires). A shard that later answers
// at a different generation — a restart, a side-channel mutation — turns
// queries into clean 503s rather than wrong answers.
//
// Requests pass the same admission as on a mosaic-serve shard, at its
// default limits: a malformed X-Mosaic-Priority or X-Mosaic-Deadline-Ms is
// a 400, a spent deadline a 503 + Retry-After before any shard is called,
// and a request still running at its deadline (-request-timeout, or the
// caller's, whichever is sooner) a 504.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mosaic/client"
	"mosaic/internal/coord"
)

func main() {
	addr := flag.String("addr", ":7172", "listen address")
	shards := flag.String("shards", "", "comma-separated shard base URLs, e.g. http://h1:7171,http://h2:7171; the order is part of the float-aggregate answer contract")
	replicas := flag.String("replicas", "", "comma-separated shardIndex=URL follower registrations, e.g. 0=http://h1r:7173,0=http://h1r2:7174")
	replicaPoll := flag.Duration("replica-poll", 250*time.Millisecond, "how often replica generations are probed for read eligibility")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline, end to end across all shard calls")
	retries := flag.Int("retries", 3, "per-shard retries of idempotent calls (queries, scatters); exec is never retried")
	bootTimeout := flag.Duration("boot-timeout", 30*time.Second, "how long to wait for every shard to come up and agree on a generation")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatal("mosaic-coord: -shards is required (comma-separated shard base URLs)")
	}

	replicaMap, err := parseReplicas(*replicas)
	if err != nil {
		log.Fatalf("mosaic-coord: %v", err)
	}
	// Validate the whole topology up front for one clear fatal instead of a
	// half-constructed coordinator (New re-validates, but this names the
	// flag at fault).
	if err := coord.ValidateTopology(urls, replicaMap); err != nil {
		log.Fatalf("mosaic-coord: bad -shards/-replicas topology: %v", err)
	}

	c, err := coord.New(coord.Config{
		Shards:              urls,
		Replicas:            replicaMap,
		ReplicaPollInterval: *replicaPoll,
		Retry:               client.RetryPolicy{MaxRetries: *retries},
		RequestTimeout:      *requestTimeout,
		Logf:                log.Printf,
	})
	if err != nil {
		log.Fatalf("mosaic-coord: %v", err)
	}
	defer c.Close()

	// Boot handshake: serve only once the whole fleet is reachable and agrees
	// on one generation. Shards may still be starting — keep probing.
	bootCtx, bootCancel := context.WithTimeout(context.Background(), *bootTimeout)
	for {
		err = c.Sync(bootCtx)
		if err == nil {
			break
		}
		select {
		case <-bootCtx.Done():
			log.Fatalf("mosaic-coord: fleet did not converge within %s: %v", *bootTimeout, err)
		case <-time.After(250 * time.Millisecond):
		}
	}
	bootCancel()
	nReplicas := 0
	for _, rs := range replicaMap {
		nReplicas += len(rs)
	}
	log.Printf("mosaic-coord: fleet of %d shards (+%d read replicas) at generation %d", len(urls), nReplicas, c.Generation())

	httpSrv := &http.Server{Addr: *addr, Handler: c.Handler()}
	done := make(chan error, 1)
	go func() {
		log.Printf("mosaic-coord listening on %s", *addr)
		err := httpSrv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		done <- err
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			log.Fatalf("mosaic-coord: %v", err)
		}
	case s := <-sig:
		log.Printf("received %s, shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = httpSrv.Shutdown(ctx)
		cancel()
	}
	fmt.Fprintln(os.Stderr, "mosaic-coord: bye")
}

// parseReplicas parses the -replicas flag: comma-separated shardIndex=URL
// pairs, e.g. "0=http://h1r:7173,0=http://h1r2:7174,1=http://h2r:7173".
func parseReplicas(raw string) (map[int][]string, error) {
	out := make(map[int][]string)
	for _, entry := range strings.Split(raw, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		idx, u, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("-replicas entry %q: want shardIndex=URL", entry)
		}
		shard, err := strconv.Atoi(strings.TrimSpace(idx))
		if err != nil {
			return nil, fmt.Errorf("-replicas entry %q: bad shard index %q", entry, idx)
		}
		out[shard] = append(out[shard], strings.TrimSpace(u))
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}
