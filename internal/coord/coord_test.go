// Fleet tests: a coordinator over N real internal/server shard instances
// must answer bit-identically to one in-process engine opened with
// Options.Shards: N — and must turn every shard failure into a clean 503,
// never a partial answer.
package coord_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/coord"
	"mosaic/internal/faulty"
	"mosaic/internal/repro"
	"mosaic/internal/server"
	"mosaic/internal/wire"
)

// world builds the flights workload once and shares its dump script across
// every fleet test: restoring the same script into every shard and every
// reference engine is what makes byte-comparison meaningful.
var world struct {
	once   sync.Once
	script string
	cfg    repro.FlightsConfig
	err    error
}

func worldScript(t *testing.T) (string, *mosaic.Options) {
	t.Helper()
	world.once.Do(func() {
		setup, err := repro.BuildFlights(repro.FlightsConfig{PopN: 4000})
		if err != nil {
			world.err = err
			return
		}
		world.cfg = setup.Cfg
		world.script, world.err = setup.Engine.DumpScript()
	})
	if world.err != nil {
		t.Fatal(world.err)
	}
	return world.script, &mosaic.Options{
		Seed:        world.cfg.Seed,
		OpenSamples: world.cfg.OpenSamples,
		SWG:         world.cfg.SWG,
		IPF:         world.cfg.IPF,
	}
}

// fleetQueries exercises every mergeable aggregate kind plus HAVING,
// ORDER BY, and LIMIT post-aggregation, under both stored-weight paths.
var fleetQueries = []string{
	"SELECT CLOSED COUNT(*) FROM Flights",
	"SELECT CLOSED AVG(distance) FROM Flights WHERE elapsed_time > 200",
	"SELECT CLOSED SUM(distance), MIN(taxi_out), MAX(taxi_in) FROM Flights",
	"SELECT CLOSED carrier, AVG(distance) FROM Flights WHERE carrier IN ('WN', 'AA') GROUP BY carrier",
	"SELECT CLOSED carrier, COUNT(*) AS n, SUM(distance) FROM Flights GROUP BY carrier HAVING n > 10 ORDER BY carrier LIMIT 5",
	"SELECT SEMI-OPEN AVG(taxi_in) FROM Flights WHERE elapsed_time < 200",
	"SELECT SEMI-OPEN carrier, AVG(elapsed_time) FROM Flights WHERE distance > 1000 GROUP BY carrier ORDER BY carrier",
	"SELECT COUNT(*) FROM FlightsSample",
	"SELECT AVG(distance) FROM FlightsSample WHERE elapsed_time > 200",
}

// render serializes a result for exact byte comparison (columns + HashKey of
// every value, so kinds and float bits count, not just the printed form).
func render(res *mosaic.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, ","))
	b.WriteByte('\n')
	for _, row := range res.Rows {
		for _, v := range row {
			b.WriteString(v.HashKey())
			b.WriteByte('\x1f')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// shardProc is one in-process stand-in for a mosaic-serve shard.
type shardProc struct {
	db *mosaic.DB
	ts *httptest.Server
}

func startShard(t *testing.T, script string, opts *mosaic.Options) *shardProc {
	t.Helper()
	db := mosaic.Open(opts)
	if err := db.Restore(script); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, RequestTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &shardProc{db: db, ts: ts}
}

// startFleet boots n shards plus a synced coordinator and returns the
// coordinator's client, the shard handles, the coordinator itself, and its
// base URL.
func startFleet(t *testing.T, n int, script string, opts *mosaic.Options) (*client.Client, []*shardProc, *coord.Coordinator, string) {
	t.Helper()
	shards := make([]*shardProc, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = startShard(t, script, opts)
		urls[i] = shards[i].ts.URL
	}
	c, err := coord.New(coord.Config{
		Shards:         urls,
		Retry:          client.RetryPolicy{MaxRetries: 2, BaseBackoff: 10 * time.Millisecond, Budget: 5 * time.Second},
		RequestTimeout: time.Minute,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(c.Handler())
	t.Cleanup(cts.Close)
	return client.New(cts.URL), shards, c, cts.URL
}

// TestFleetBitIdenticalToInProcessShards is the tentpole's answer contract:
// for N ∈ {1, 2, 4}, a fleet of N shard processes answers every query
// bit-identically to a single engine opened with Options.Shards: N, and
// repeating a query through the fleet reproduces the same bytes. At N = 1
// the fleet also matches the forced row-at-a-time engine byte for byte.
func TestFleetBitIdenticalToInProcessShards(t *testing.T) {
	script, opts := worldScript(t)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			cc, _, _, _ := startFleet(t, n, script, opts)
			refOpts := *opts
			refOpts.Shards = n
			ref := mosaic.Open(&refOpts)
			if err := ref.Restore(script); err != nil {
				t.Fatal(err)
			}
			var rowRef *mosaic.DB
			if n == 1 {
				rowOpts := *opts
				rowOpts.RowExec = true
				rowRef = mosaic.Open(&rowOpts)
				if err := rowRef.Restore(script); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range fleetQueries {
				want, err := ref.Query(q)
				if err != nil {
					t.Fatalf("%s: reference: %v", q, err)
				}
				got, err := cc.Query(q)
				if err != nil {
					t.Fatalf("%s: fleet: %v", q, err)
				}
				if render(got) != render(want) {
					t.Errorf("%s: fleet answer diverged from Options.Shards:%d\nfleet: %q\nref:   %q", q, n, render(got), render(want))
				}
				again, err := cc.Query(q)
				if err != nil {
					t.Fatalf("%s: fleet rerun: %v", q, err)
				}
				if render(again) != render(got) {
					t.Errorf("%s: fleet answer not reproducible across runs", q)
				}
				if rowRef != nil {
					rw, err := rowRef.Query(q)
					if err != nil {
						t.Fatalf("%s: row reference: %v", q, err)
					}
					if render(got) != render(rw) {
						t.Errorf("%s: 1-shard fleet diverged from the row engine", q)
					}
				}
			}
		})
	}
}

// TestFleetExecFansOutAndQueriesTrackMutations drives DDL/DML through the
// coordinator and checks that subsequent scattered answers track the
// mutation exactly as an in-process engine does — the generation handshake
// advancing along the way.
func TestFleetExecFansOutAndQueriesTrackMutations(t *testing.T) {
	script, opts := worldScript(t)
	cc, shards, c, _ := startFleet(t, 2, script, opts)
	refOpts := *opts
	refOpts.Shards = 2
	ref := mosaic.Open(&refOpts)
	if err := ref.Restore(script); err != nil {
		t.Fatal(err)
	}

	before := c.Generation()
	const ddl = "CREATE TABLE Fleet (k TEXT, v INT); INSERT INTO Fleet VALUES ('a', 1), ('a', 2), ('b', 3), ('b', 4), ('c', 5)"
	if err := cc.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	if err := ref.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	if c.Generation() == before {
		t.Error("exec fan-out did not advance the fleet generation")
	}
	for _, q := range []string{
		"SELECT COUNT(*), SUM(v) FROM Fleet",
		"SELECT k, AVG(v) FROM Fleet GROUP BY k ORDER BY k",
	} {
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(want) {
			t.Errorf("%s: post-exec fleet answer diverged\nfleet: %q\nref:   %q", q, render(got), render(want))
		}
	}
	// Both shards really applied the script (replicated data, not routed).
	for i, sh := range shards {
		res, err := sh.db.Query("SELECT COUNT(*) FROM Fleet")
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if got, _ := res.Rows[0][0].Float64(); got != 5 {
			t.Errorf("shard %d holds %g Fleet rows, want 5", i, got)
		}
	}
}

// TestFleetRelaysScriptsItsShardsAccept: the coordinator caps request
// bodies where its shards do (wire.MaxBodyBytes), so a script larger than
// 1 MiB but under that cap runs through the front door as it would against
// one shard.
func TestFleetRelaysScriptsItsShardsAccept(t *testing.T) {
	cc, shards, _, _ := startFleet(t, 2, "CREATE TABLE Big (k TEXT, v INT)", nil)
	script := fmt.Sprintf("INSERT INTO Big VALUES ('%s', 1)", strings.Repeat("x", 2<<20))
	if err := cc.Exec(script); err != nil {
		t.Fatalf("%d-byte script through the coordinator: %v", len(script), err)
	}
	for i, sh := range shards {
		res, err := sh.db.Query("SELECT COUNT(*) FROM Big")
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if got, _ := res.Rows[0][0].Float64(); got != 1 {
			t.Errorf("shard %d holds %g Big rows, want 1", i, got)
		}
	}
}

// TestFleetPassThroughNonAggregate: non-aggregate shapes relay whole to
// shard 0 and answer byte-identically to a single engine.
func TestFleetPassThroughNonAggregate(t *testing.T) {
	script, opts := worldScript(t)
	cc, _, _, coordURL := startFleet(t, 2, script, opts)
	ref := mosaic.Open(opts)
	if err := ref.Restore(script); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT carrier, distance FROM FlightsSample WHERE distance > 2000",
		"SELECT DISTINCT carrier FROM FlightsSample",
	} {
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(want) {
			t.Errorf("%s: pass-through diverged", q)
		}
	}
	var st wire.CoordStatsResponse
	resp, err := http.Get(coordURL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.PassThrough != 2 {
		t.Errorf("pass_through = %d, want 2", st.PassThrough)
	}
	if st.Scattered != 0 {
		t.Errorf("scattered = %d, want 0", st.Scattered)
	}
}

// TestFleetShardDeathIs503NeverPartial kills one shard process mid-fleet:
// every aggregate answer afterwards is a 503 with a Retry-After hint —
// never a partial or wrong answer — while pass-through to the surviving
// shard 0 keeps working.
func TestFleetShardDeathIs503NeverPartial(t *testing.T) {
	script, opts := worldScript(t)
	cc, shards, _, _ := startFleet(t, 2, script, opts)
	refOpts := *opts
	refOpts.Shards = 2
	ref := mosaic.Open(&refOpts)
	if err := ref.Restore(script); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT CLOSED carrier, AVG(distance) FROM Flights GROUP BY carrier ORDER BY carrier"
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cc.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("fleet diverged before the kill — test setup broken")
	}

	shards[1].ts.Close() // the shard process dies

	for i := 0; i < 5; i++ {
		res, err := cc.Query(q)
		if err == nil {
			t.Fatalf("query %d after shard death answered %q — a partial answer escaped", i, render(res))
		}
		var re *client.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("query %d: err = %v, want RemoteError", i, err)
		}
		if re.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("query %d: status %d, want 503", i, re.StatusCode)
		}
		if re.RetryAfter <= 0 {
			t.Errorf("query %d: 503 lacks a Retry-After hint", i)
		}
	}
	// Pass-through only needs shard 0 — still serving.
	if _, err := cc.Query("SELECT DISTINCT carrier FROM FlightsSample"); err != nil {
		t.Errorf("pass-through should survive a non-zero shard's death: %v", err)
	}
}

// TestFleetGenerationDivergenceIs503: a shard mutated behind the
// coordinator's back answers 409 to scatters, which the coordinator turns
// into a clean 503 — the handshake that keeps divergent data out of answers.
func TestFleetGenerationDivergenceIs503(t *testing.T) {
	script, opts := worldScript(t)
	cc, shards, c, _ := startFleet(t, 2, script, opts)

	// Side-channel mutation: shard 1 moves ahead of the fleet.
	rogue := client.New(shards[1].ts.URL)
	if err := rogue.Exec("CREATE TABLE Rogue (x INT)"); err != nil {
		t.Fatal(err)
	}

	_, err := cc.Query("SELECT CLOSED COUNT(*) FROM Flights")
	var re *client.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("scatter against a diverged shard: err = %v, want RemoteError", err)
	}
	if re.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", re.StatusCode)
	}
	if !strings.Contains(re.Message, "generation") {
		t.Errorf("503 message %q does not name the generation divergence", re.Message)
	}
	if err := c.Sync(t.Context()); err == nil {
		t.Error("Sync on a diverged fleet must fail")
	}
}

// TestFleetFlakyShardAbsorbedByRetries fronts one shard with the faulty
// proxy: dropped connections are transport errors on an idempotent path, so
// the coordinator's per-shard retries absorb them and answers stay
// bit-identical.
func TestFleetFlakyShardAbsorbedByRetries(t *testing.T) {
	script, opts := worldScript(t)
	sh0 := startShard(t, script, opts)
	sh1 := startShard(t, script, opts)
	proxy := &faulty.Proxy{Target: strings.TrimPrefix(sh1.ts.URL, "http://"), DropEvery: 3}
	addr, err := proxy.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	c, err := coord.New(coord.Config{
		Shards:         []string{sh0.ts.URL, "http://" + addr},
		Retry:          client.RetryPolicy{MaxRetries: 4, BaseBackoff: 5 * time.Millisecond, Budget: 10 * time.Second},
		RequestTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err = c.Sync(t.Context()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Sync never succeeded through the flaky proxy: %v", err)
		}
	}
	cts := httptest.NewServer(c.Handler())
	t.Cleanup(cts.Close)
	cc := client.New(cts.URL)

	refOpts := *opts
	refOpts.Shards = 2
	ref := mosaic.Open(&refOpts)
	if err := ref.Restore(script); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT CLOSED carrier, AVG(distance) FROM Flights GROUP BY carrier ORDER BY carrier"
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent bursts force fresh connections through the proxy (a single
	// sequential client would ride one keep-alive connection past the
	// per-connection drop schedule).
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 6)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := cc.Query(q)
				if err != nil {
					errs[i] = err
					return
				}
				if render(got) != render(want) {
					errs[i] = fmt.Errorf("flaky-path answer diverged: %q", render(got))
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d query %d through flaky shard: %v", round, i, err)
			}
		}
	}
	if proxy.Dropped.Load() == 0 {
		t.Error("proxy dropped nothing — the fault injection never engaged")
	}
}

// TestFleetForwardsPriorityHeader: the coordinator refuses a malformed
// X-Mosaic-Priority exactly as a shard does, and forwards a valid class on
// every shard call of the request — a CLOSED scatter sent as batch is
// admitted as batch on each shard, where its derived class would have been
// interactive.
func TestFleetForwardsPriorityHeader(t *testing.T) {
	script, opts := worldScript(t)
	_, shards, _, coordURL := startFleet(t, 2, script, opts)
	const q = "SELECT CLOSED COUNT(*) FROM Flights"

	_, shardErr := client.New(shards[0].ts.URL, client.WithPriority("urgent")).Query(q)
	_, coordErr := client.New(coordURL, client.WithPriority("urgent")).Query(q)
	var re *client.RemoteError
	if !errors.As(coordErr, &re) || re.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority through the coordinator: err = %v, want a 400", coordErr)
	}
	if shardErr == nil || coordErr.Error() != shardErr.Error() {
		t.Errorf("coordinator refusal %q differs from the shard's %q", coordErr, shardErr)
	}

	if _, err := client.New(coordURL, client.WithPriority("batch")).Query(q); err != nil {
		t.Fatal(err)
	}
	for i, sh := range shards {
		st, err := client.New(sh.ts.URL).Stats()
		if err != nil {
			t.Fatal(err)
		}
		if b, in := st.Classes["batch"].Admitted, st.Classes["interactive"].Admitted; b != 1 || in != 0 {
			t.Errorf("shard %d admitted %d batch / %d interactive requests, want 1 / 0", i, b, in)
		}
	}
}

// TestFleetShedsDoomedDeadlineBeforeShards: the coordinator sheds a spent
// X-Mosaic-Deadline-Ms as a shard does — 503 with Retry-After, counted
// under shed — before it calls any shard: no shard admits a request.
func TestFleetShedsDoomedDeadlineBeforeShards(t *testing.T) {
	script, opts := worldScript(t)
	_, shards, _, coordURL := startFleet(t, 2, script, opts)
	admitted := func() (n int64) {
		for _, sh := range shards {
			st, err := client.New(sh.ts.URL).Stats()
			if err != nil {
				t.Fatal(err)
			}
			for _, cs := range st.Classes {
				n += cs.Admitted
			}
		}
		return n
	}
	before := admitted()
	body, _ := json.Marshal(wire.QueryRequest{Query: "SELECT CLOSED COUNT(*) FROM Flights"})
	req, err := http.NewRequest(http.MethodPost, coordURL+"/v1/query", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.DeadlineHeader, "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("doomed request answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed 503 lacks a Retry-After hint")
	}
	if after := admitted(); after != before {
		t.Errorf("a shed request reached the shards: %d → %d admitted", before, after)
	}
	st := coordStats(t, coordURL)
	if st.Shed != 1 || st.Classes["interactive"].Shed != 1 || st.Classes["interactive"].Admitted != 0 {
		t.Errorf("coordinator shed %d (interactive: shed %d, admitted %d), want 1 / 1 / 0",
			st.Shed, st.Classes["interactive"].Shed, st.Classes["interactive"].Admitted)
	}
	if st.Queries != 0 || st.Unavailable != 0 {
		t.Errorf("a shed request counted as %d queries / %d unavailable, want 0 / 0", st.Queries, st.Unavailable)
	}
}

// TestFleetAdmitsByClass: the coordinator admits under a shard's classes —
// an explicit batch request shows as batch in its own /statsz, a CLOSED
// query without the header as interactive — and its /statsz keeps every
// fleet counter name beside the class block.
func TestFleetAdmitsByClass(t *testing.T) {
	script, opts := worldScript(t)
	cc, _, _, coordURL := startFleet(t, 2, script, opts)
	const q = "SELECT CLOSED COUNT(*) FROM Flights"
	if _, err := client.New(coordURL, client.WithPriority("batch")).Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Query(q); err != nil {
		t.Fatal(err)
	}
	st := coordStats(t, coordURL)
	if b, in := st.Classes["batch"].Admitted, st.Classes["interactive"].Admitted; b != 1 || in != 1 {
		t.Errorf("coordinator admitted %d batch / %d interactive requests, want 1 / 1", b, in)
	}
	resp, err := http.Get(coordURL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scattered", "pass_through", "primary_reads", "classes", "shed", "timeouts"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("coordinator /statsz lacks %q", key)
		}
	}
}

// stall delays every /v1 request by d (or until its caller leaves) before
// serving it; /statsz and /healthz answer at once, so the fleet syncs and
// polls normally.
func stall(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
			}
		}
		h.ServeHTTP(w, r)
	})
}

// TestFleetDeadlineAtCoordinatorIs504: when the coordinator's own deadline
// expires while every backend of a shard stalls, the answer is the
// kernel's 504, counted under timeouts — not a 503 blaming the shard, a
// failover, or a shard error.
func TestFleetDeadlineAtCoordinatorIs504(t *testing.T) {
	script, opts := worldScript(t)
	var urls []string
	for i := 0; i < 2; i++ {
		db := mosaic.Open(opts)
		if err := db.Restore(script); err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{DB: db, RequestTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(stall(srv.Handler(), 2*time.Second))
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		urls = append(urls, ts.URL)
	}
	c, err := coord.New(coord.Config{
		Shards:              urls[:1],
		Replicas:            map[int][]string{0: urls[1:]},
		ReplicaPollInterval: 10 * time.Millisecond,
		RequestTimeout:      200 * time.Millisecond,
		Logf:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(c.Handler())
	t.Cleanup(cts.Close)
	deadline := time.Now().Add(5 * time.Second)
	for st := coordStats(t, cts.URL); !st.Backends[1].CaughtUp; st = coordStats(t, cts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("the replica never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	_, err = client.New(cts.URL).Query("SELECT CLOSED COUNT(*) FROM Flights")
	var re *client.RemoteError
	if !errors.As(err, &re) || re.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("query past the coordinator's deadline: err = %v, want a 504", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("the 504 took %s against a 200ms deadline", elapsed)
	}
	st := coordStats(t, cts.URL)
	if st.Timeouts != 1 || st.Classes["interactive"].Timeouts != 1 {
		t.Errorf("timeouts = %d (interactive %d), want 1 / 1", st.Timeouts, st.Classes["interactive"].Timeouts)
	}
	if st.Failovers != 0 || st.ShardErrors != 0 || st.Unavailable != 0 {
		t.Errorf("the coordinator's own expiry counted %d failovers, %d shard errors, %d unavailable; want 0 each",
			st.Failovers, st.ShardErrors, st.Unavailable)
	}
}

// TestFleetExplainPrependsFleetPlan: EXPLAIN through the coordinator carries
// the fleet topology ahead of the shard's own plan rows.
func TestFleetExplainPrependsFleetPlan(t *testing.T) {
	script, opts := worldScript(t)
	cc, _, _, _ := startFleet(t, 2, script, opts)
	res, err := cc.Explain("SELECT CLOSED AVG(distance) FROM Flights")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 || res.Rows[0][0].String() != "'fleet'" {
		t.Fatalf("fleet EXPLAIN does not lead with the fleet row: %q", render(res))
	}
	if !strings.Contains(res.Rows[0][1].String(), "2 shard processes") {
		t.Errorf("fleet plan row %q does not name the shard count", res.Rows[0][1].String())
	}
}
