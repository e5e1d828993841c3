// Package coord implements the mosaic fleet coordinator: an HTTP process
// that owns a static shard membership list and answers the mosaic-serve wire
// protocol by fanning work out to N independent mosaic-serve shard
// processes.
//
// Topology: replicated data, partitioned compute. Every shard process holds
// the FULL dataset — /v1/exec scripts fan out to all shards under a
// generation handshake — and a scatter asks shard i for the partial
// aggregate states of slice i of N over its own copy (POST /v1/partial).
// The coordinator gathers the decoded partials in fixed shard order through
// the same exec.GatherPartials the in-process engine uses, so a fleet of N
// shards answers bit-identically to one engine opened with Options.Shards: N
// — and a fleet of 1 byte-identically to the row engine.
//
// Queries the partial plan cannot serve (OPEN visibility, non-aggregate
// shapes) pass through whole to shard 0, whose answer is relayed verbatim —
// valid precisely because every shard holds the full data.
//
// # Read replicas
//
// Each shard slot may additionally register follower replicas
// (Config.Replicas): mosaic-serve processes in -follow mode that tail that
// shard's primary. Reads — pass-through and scatter alike — then balance
// across the slot's primary and its caught-up replicas by EWMA latency,
// and fail over between them: a backend that cannot answer is skipped and
// the next candidate tried, so a dead follower degrades capacity, never
// availability. Replica answers are generation-gated twice: the
// coordinator only considers replicas whose last-polled generation equals
// the fleet's, and every request routed to a replica carries
// CheckGeneration so the follower itself refuses (409) if it lags or moves
// mid-query. A caught-up follower answers bit-identically to its primary
// at the same generation (the replication contract, internal/repl), so
// routing is invisible in answers. Writes (/v1/exec) fan out to primaries
// only; followers reject DDL/DML by design.
//
// Failure contract: a shard slot where NO backend can answer — primary and
// every caught-up replica unreachable, diverged, or mid-crash — turns the
// whole query into a 503 with a Retry-After hint. The coordinator never
// synthesizes an answer from a subset of shards: a wrong answer is worse
// than no answer. One function, shardFailure, classifies every failed shard
// call.
//
// # Request path
//
// The coordinator owns no HTTP plumbing of its own: each /v1 endpoint is one
// server.Call answered through internal/server's Kernel, the request path a
// shard serves through. Body decoding, the priority and deadline headers,
// doomed-deadline shedding, admission by class at the default QoSConfig,
// the 504 path and the /statsz class block are therefore a shard's, word
// for word. A deadline that expires here is a 504, never a shard failure.
package coord

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mosaic/client"
	"mosaic/internal/exec"
	"mosaic/internal/server"
	"mosaic/internal/sql"
	"mosaic/internal/value"
	"mosaic/internal/wire"
)

// Config configures a Coordinator.
type Config struct {
	// Shards are the shard primary base URLs, e.g. "http://127.0.0.1:7181".
	// The order is the fan-out order and part of the answer contract:
	// partial aggregate states merge in this order, and float addition does
	// not reassociate.
	Shards []string
	// Replicas maps a shard index to the base URLs of follower processes
	// replicating that shard's primary (mosaic-serve -follow). Replicas
	// serve reads only, and only while caught up to the fleet generation.
	Replicas map[int][]string
	// ReplicaPollInterval is how often replica generations are re-probed
	// for read eligibility. Default 250ms.
	ReplicaPollInterval time.Duration
	// Retry is the per-backend retry policy for idempotent calls (scatter,
	// pass-through, health). Zero-valued fields take client defaults.
	Retry client.RetryPolicy
	// RequestTimeout bounds every request end to end, intersected with any
	// client-propagated X-Mosaic-Deadline-Ms; the remaining budget
	// re-propagates to every shard call. Default 30s.
	RequestTimeout time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ReplicaPollInterval <= 0 {
		c.ReplicaPollInterval = 250 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ValidateTopology checks a fleet layout before any process is dialed:
// every URL must parse with an http(s) scheme and a host, replica shard
// indices must address a configured shard, and no URL may appear twice
// across the primary and replica roles (one process cannot be both, and a
// duplicate primary would double-apply every exec).
func ValidateTopology(shards []string, replicas map[int][]string) error {
	if len(shards) == 0 {
		return errors.New("coord: no shards configured")
	}
	role := make(map[string]string, len(shards))
	for i, u := range shards {
		if err := validateURL(u); err != nil {
			return fmt.Errorf("coord: shard %d: %v", i, err)
		}
		if prev, dup := role[u]; dup {
			return fmt.Errorf("coord: %q is both %s and shard %d primary — every backend must be a distinct process", u, prev, i)
		}
		role[u] = fmt.Sprintf("shard %d primary", i)
	}
	for shard, urls := range replicas {
		if shard < 0 || shard >= len(shards) {
			return fmt.Errorf("coord: replicas configured for shard %d, but the fleet has shards 0..%d", shard, len(shards)-1)
		}
		for _, u := range urls {
			if err := validateURL(u); err != nil {
				return fmt.Errorf("coord: replica of shard %d: %v", shard, err)
			}
			if prev, dup := role[u]; dup {
				return fmt.Errorf("coord: %q is both %s and a replica of shard %d — every backend must be a distinct process", u, prev, shard)
			}
			role[u] = fmt.Sprintf("shard %d replica", shard)
		}
	}
	return nil
}

func validateURL(raw string) error {
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("bad URL %q: %v", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("URL %q must use an http or https scheme", raw)
	}
	if u.Host == "" {
		return fmt.Errorf("URL %q has no host", raw)
	}
	return nil
}

// backend is one read-serving process: a shard slot's primary or one of its
// follower replicas. The generation fields are the poller's last view (a
// replica is a read candidate only when its generation equals the fleet's);
// primaries are authoritative by definition and skip the poll.
type backend struct {
	url     string
	shard   int
	replica bool
	cli     *client.Client

	gen      atomic.Uint64 // last polled replicated generation (replicas)
	genKnown atomic.Bool   // false until the poller has reached it

	ewmaNs    atomic.Int64 // smoothed read latency, the balancing signal
	reads     atomic.Int64 // successful reads served
	failovers atomic.Int64 // reads that failed here and moved on
}

// observe folds one successful read's latency into the EWMA (α = 0.2).
// Lost updates under concurrency only soften the smoothing.
func (b *backend) observe(d time.Duration) {
	n := d.Nanoseconds()
	if old := b.ewmaNs.Load(); old > 0 {
		n = old + (n-old)/5
	}
	b.ewmaNs.Store(n)
}

// Coordinator fans the mosaic wire protocol over a fixed shard fleet.
type Coordinator struct {
	cfg      Config
	backends [][]*backend // [shard][0] = primary, rest replicas
	started  time.Time
	mux      *http.ServeMux
	kernel   *server.Kernel

	// gen is the coordinator's view of the fleet's DDL/DML generation
	// counter. Every scatter carries it and every shard refuses (409) on
	// mismatch, so a shard that restarted empty or was mutated behind the
	// coordinator's back can never contribute a partial to an answer.
	gen atomic.Uint64
	// fleetMu serializes mutations against queries: exec fan-out holds the
	// write lock (the generation moves), reads hold the read lock.
	fleetMu sync.RWMutex

	queries      atomic.Int64
	scattered    atomic.Int64
	passThrough  atomic.Int64
	execs        atomic.Int64
	explains     atomic.Int64
	unavail      atomic.Int64
	shardErrors  atomic.Int64
	primaryReads atomic.Int64
	replicaReads atomic.Int64
	failovers    atomic.Int64

	closeOnce sync.Once
	pollStop  chan struct{}
	pollDone  chan struct{}
}

// New creates a Coordinator over cfg.Shards (+ cfg.Replicas). Call Sync
// before serving to adopt the fleet's current generation, and Close to stop
// the replica poller.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if err := ValidateTopology(cfg.Shards, cfg.Replicas); err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, started: time.Now(), kernel: server.NewKernel(server.QoSConfig{}, cfg.RequestTimeout)}
	replicas := 0
	for i, base := range cfg.Shards {
		slot := []*backend{{url: base, shard: i, cli: client.New(base, client.WithRetry(cfg.Retry))}}
		for _, ru := range cfg.Replicas[i] {
			slot = append(slot, &backend{url: ru, shard: i, replica: true, cli: client.New(ru, client.WithRetry(cfg.Retry))})
			replicas++
		}
		c.backends = append(c.backends, slot)
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/v1/query", c.handleQuery)
	c.mux.HandleFunc("/v1/exec", c.handleExec)
	c.mux.HandleFunc("/v1/explain", c.handleExplain)
	c.mux.HandleFunc("/healthz", c.handleHealth)
	c.mux.HandleFunc("/statsz", c.handleStats)
	if replicas > 0 {
		c.pollStop = make(chan struct{})
		c.pollDone = make(chan struct{})
		go c.pollReplicas()
	}
	return c, nil
}

// Close stops the replica generation poller (a no-op for replica-less
// fleets). In-flight requests are unaffected.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		if c.pollStop != nil {
			close(c.pollStop)
			<-c.pollDone
		}
	})
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Generation returns the coordinator's view of the fleet generation.
func (c *Coordinator) Generation() uint64 { return c.gen.Load() }

// Sync probes every primary's generation and adopts it when the fleet
// agrees. It is the boot handshake — a coordinator must not serve ahead of
// it — and the recovery path after a degraded exec.
func (c *Coordinator) Sync(ctx context.Context) error {
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	gens, err := c.probeGenerations(ctx)
	if err != nil {
		return err
	}
	for i, g := range gens {
		if g != gens[0] {
			return fmt.Errorf("coord: shard generations diverged: shard 0 at %d, shard %d at %d", gens[0], i, g)
		}
	}
	c.gen.Store(gens[0])
	return nil
}

// probeGenerations fetches every primary's /statsz generation in parallel.
// Callers hold fleetMu.
func (c *Coordinator) probeGenerations(ctx context.Context) ([]uint64, error) {
	gens := make([]uint64, len(c.backends))
	errs := make([]error, len(c.backends))
	var wg sync.WaitGroup
	for i := range c.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.backends[i][0].cli.StatsContext(ctx)
			if err != nil {
				errs[i] = err
				return
			}
			gens[i] = st.Generation
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("coord: shard %d (%s): %v", i, c.cfg.Shards[i], err)
		}
	}
	return gens, nil
}

// pollReplicas keeps every replica's replicated generation fresh: a replica
// is a read candidate only while its last-polled generation matches the
// fleet's, so a lagging or unreachable follower silently leaves the rotation
// and rejoins once caught up. Polling is advisory — the authoritative gate
// is the CheckGeneration handshake on every routed request.
func (c *Coordinator) pollReplicas() {
	defer close(c.pollDone)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		var wg sync.WaitGroup
		for _, slot := range c.backends {
			for _, b := range slot[1:] {
				wg.Add(1)
				go func(b *backend) {
					defer wg.Done()
					st, err := b.cli.StatsContext(ctx)
					if err != nil {
						b.genKnown.Store(false)
						return
					}
					b.gen.Store(st.Generation)
					b.genKnown.Store(true)
				}(b)
			}
		}
		wg.Wait()
		cancel()
		select {
		case <-c.pollStop:
			return
		case <-time.After(c.cfg.ReplicaPollInterval):
		}
	}
}

// readCandidates returns the backends eligible to serve a read for one
// shard slot, cheapest EWMA first: the primary (always — it is the
// authority of last resort) plus every replica whose polled generation
// matches the fleet's. A replica that lags is never consulted at all.
func (c *Coordinator) readCandidates(shard int) []*backend {
	gen := c.gen.Load()
	slot := c.backends[shard]
	cands := make([]*backend, 0, len(slot))
	for _, b := range slot {
		if b.replica && !(b.genKnown.Load() && b.gen.Load() == gen) {
			continue
		}
		cands = append(cands, b)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].ewmaNs.Load() < cands[j].ewmaNs.Load()
	})
	return cands
}

// countRead tallies a successful routed read on b.
func (c *Coordinator) countRead(b *backend) {
	b.reads.Add(1)
	if b.replica {
		c.replicaReads.Add(1)
	} else {
		c.primaryReads.Add(1)
	}
}

// call wraps one endpoint's work as the kernel's Call. It forwards the
// caller's explicit X-Mosaic-Priority — which the kernel validated before
// the Call runs — on every shard and replica call of the request, so the
// shards admit fleet traffic by the class the caller asked for, and it
// counts the 503s shard trouble causes.
func (c *Coordinator) call(r *http.Request, work server.Call) server.Call {
	priority := r.Header.Get(wire.PriorityHeader)
	return func(ctx context.Context) (any, error) {
		if priority != "" {
			ctx = client.ContextWithPriority(ctx, priority)
		}
		body, err := work(ctx)
		var se *server.StatusError
		if errors.As(err, &se) && se.Status == http.StatusServiceUnavailable {
			c.unavail.Add(1)
		}
		return body, err
	}
}

// shardFailure is the coordinator's one classification of a failed call to
// a shard backend (what names it in the message). It returns the error to
// answer with, and whether another backend of the same slot may still
// answer:
//
//   - the request's own deadline expired or its caller left: ctx.Err(),
//     which the kernel answers as a 504 (or drops). No shard error, no
//     failover — the shard did nothing wrong;
//   - a 4xx other than 409: the engine's refusal, identical on every
//     backend — relayed verbatim;
//   - a 409: the backend is not at the fleet generation — 503;
//   - anything else, a transport failure or a 5xx: 503 with the backend's
//     Retry-After.
func (c *Coordinator) shardFailure(ctx context.Context, err error, what string) (error, bool) {
	if ctx.Err() != nil {
		return ctx.Err(), false
	}
	c.shardErrors.Add(1)
	var re *client.RemoteError
	switch {
	case !errors.As(err, &re):
		return unavailable(0, "%s unreachable: %v", what, err), true
	case re.StatusCode == http.StatusConflict:
		return unavailable(re.RetryAfter, "%s diverged from fleet generation %d: %s", what, c.gen.Load(), re.Message), true
	case re.StatusCode/100 == 4:
		return server.Errorf(re.StatusCode, "%s", re.Message), false
	}
	return unavailable(re.RetryAfter, "%s unavailable: %s", what, re.Message), true
}

// unavailable is the coordinator's 503: a Retry-After of the shard's hint,
// at least a second.
func unavailable(hint time.Duration, format string, args ...any) error {
	e := server.Errorf(http.StatusServiceUnavailable, format, args...)
	e.RetryAfter = max(hint, time.Second)
	return e
}

// readShard runs one read against a shard slot, failing over across its
// eligible backends, cheapest EWMA first, until read succeeds on one.
func (c *Coordinator) readShard(ctx context.Context, shard int, read func(b *backend) error) error {
	var err error
	for _, b := range c.readCandidates(shard) {
		start := time.Now()
		if err = read(b); err == nil {
			b.observe(time.Since(start))
			c.countRead(b)
			return nil
		}
		var failover bool
		if err, failover = c.shardFailure(ctx, err, fmt.Sprintf("shard %d", shard)); !failover {
			return err
		}
		b.failovers.Add(1)
		c.failovers.Add(1)
	}
	return err
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	c.kernel.Serve(w, r, http.MethodPost, &req, func() (server.Class, server.Call, error) {
		sel, err := sql.ParseQuery(req.Query)
		if err != nil {
			return 0, nil, server.Errorf(http.StatusBadRequest, "%v", err)
		}
		bound, err := server.BindParams(sel, req.Params)
		if err != nil {
			return 0, nil, err
		}
		return server.QueryClass(sel.Visibility), c.call(r, func(ctx context.Context) (any, error) {
			c.queries.Add(1)
			c.fleetMu.RLock()
			defer c.fleetMu.RUnlock()
			// OPEN queries train generative models on the unified view and
			// non-aggregate shapes return raw tuples — neither decomposes
			// into mergeable partial states. Both pass through whole; every
			// shard holds the full data, so shard 0's answer IS the fleet's
			// answer.
			if sel.Visibility == sql.VisibilityOpen || !sel.IsAggregate() {
				return c.passQueryLocked(ctx, &req)
			}
			return c.scatterQueryLocked(ctx, &req, bound)
		}), nil
	})
}

// passQueryLocked relays the whole query to shard slot 0 — primary or any
// caught-up replica, cheapest first — and the winning answer verbatim,
// failing over until a backend answers. Callers hold fleetMu.RLock.
func (c *Coordinator) passQueryLocked(ctx context.Context, req *wire.QueryRequest) (any, error) {
	gen := c.gen.Load()
	var res *wire.Result
	err := c.readShard(ctx, 0, func(b *backend) (err error) {
		rq := *req
		if b.replica {
			// Pin the replica to the fleet generation: a follower that lags
			// or catches up mid-query refuses instead of answering from a
			// different state than the primary's.
			rq.Generation = gen
			rq.CheckGeneration = true
		}
		res, err = b.cli.QueryRawContext(ctx, &rq)
		return err
	})
	if err != nil {
		return nil, err
	}
	c.passThrough.Add(1)
	return res, nil
}

// scatterQueryLocked fans the partial plan over every shard slot, gathers
// the states in fixed shard order, and finishes the aggregation (merge,
// HAVING, ORDER BY, LIMIT) locally. Each slot fails over across its
// backends; a slot where every backend fails or answers at the wrong
// generation aborts the whole answer, with the first such slot's
// error in shard order. Callers hold fleetMu.RLock.
func (c *Coordinator) scatterQueryLocked(ctx context.Context, req *wire.QueryRequest, bound *sql.Select) (any, error) {
	gen := c.gen.Load()
	n := len(c.backends)
	resps := make([]*wire.PartialResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preq := &wire.PartialRequest{
				Query:           req.Query,
				Params:          req.Params,
				Shard:           i,
				Shards:          n,
				Generation:      gen,
				CheckGeneration: true,
			}
			errs[i] = c.readShard(ctx, i, func(b *backend) (err error) {
				resps[i], err = b.cli.PartialContext(ctx, preq)
				return err
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	partials := make([]*exec.ShardPartial, n)
	for i, resp := range resps {
		p, err := wire.DecodePartial(resp)
		if err != nil {
			c.shardErrors.Add(1)
			return nil, server.Errorf(http.StatusBadGateway, "shard %d answer undecodable: %v", i, err)
		}
		partials[i] = p
	}
	res, err := exec.GatherPartials(ctx, bound, partials)
	if err != nil {
		return nil, server.Errorf(http.StatusUnprocessableEntity, "%v", err)
	}
	c.scattered.Add(1)
	return wire.EncodeResult(res), nil
}

func (c *Coordinator) handleExec(w http.ResponseWriter, r *http.Request) {
	var req wire.ExecRequest
	c.kernel.Serve(w, r, http.MethodPost, &req, func() (server.Class, server.Call, error) {
		return server.Batch, c.call(r, func(ctx context.Context) (any, error) {
			c.execs.Add(1)
			// The generation moves: hold the write lock so no read consults
			// a half-updated fleet.
			c.fleetMu.Lock()
			defer c.fleetMu.Unlock()
			return c.execLocked(ctx, req.Script)
		}), nil
	})
}

// execLocked fans a script out to every primary — followers replicate it
// through the statement log and reject direct DDL/DML — and adopts the
// generation the shards agree on. Callers hold fleetMu.
func (c *Coordinator) execLocked(ctx context.Context, script string) (any, error) {
	n := len(c.backends)
	resps := make([]*wire.ExecResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.backends[i][0].cli.ExecRawContext(ctx, script)
		}(i)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if ferr, _ := c.shardFailure(ctx, err, "exec fan-out"); firstErr == nil {
			firstErr = ferr
		}
	}
	if firstErr == nil {
		for i, resp := range resps {
			if resp.Generation != resps[0].Generation {
				// All shards applied the script yet disagree on the counter:
				// they were divergent before this exec. Do NOT adopt either
				// side — the stale coordinator generation makes every future
				// scatter 409 into a clean 503 until an operator intervenes.
				c.cfg.Logf("coord: exec left shards diverged: shard 0 at %d, shard %d at %d", resps[0].Generation, i, resp.Generation)
				return nil, server.Errorf(http.StatusBadGateway, "fleet degraded: shard generations diverged after exec (shard 0 at %d, shard %d at %d)", resps[0].Generation, i, resp.Generation)
			}
		}
		c.gen.Store(resps[0].Generation)
		return resps[0], nil
	}
	// At least one shard failed. A deterministic script error (bad SQL,
	// unknown table) fails identically everywhere and still bumps each
	// shard's generation identically — probe to confirm the fleet converged,
	// adopt the agreed counter, and relay the engine's error. Anything else
	// leaves the coordinator's generation stale on purpose: divergent shards
	// must answer 409, not wrong partials.
	probeCtx, probeCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer probeCancel()
	gens, perr := c.probeGenerations(probeCtx)
	if perr == nil {
		agreed := true
		for _, g := range gens {
			if g != gens[0] {
				agreed = false
				break
			}
		}
		if agreed {
			c.gen.Store(gens[0])
			return nil, firstErr
		}
	}
	c.cfg.Logf("coord: exec fan-out degraded the fleet: %v (probe: %v)", firstErr, perr)
	return nil, server.Errorf(http.StatusBadGateway, "fleet degraded: exec failed on some shards and generations diverged: %v", firstErr)
}

func (c *Coordinator) handleExplain(w http.ResponseWriter, r *http.Request) {
	c.kernel.Serve(w, r, http.MethodGet, nil, func() (server.Class, server.Call, error) {
		sel, err := server.ParseExplain(r)
		if err != nil {
			return 0, nil, err
		}
		q := r.URL.Query().Get("q")
		return server.Interactive, c.call(r, func(ctx context.Context) (any, error) {
			c.explains.Add(1)
			c.fleetMu.RLock()
			defer c.fleetMu.RUnlock()
			shardPlan, err := c.backends[0][0].cli.ExplainContext(ctx, q)
			if err != nil {
				err, _ = c.shardFailure(ctx, err, "shard 0")
				return nil, err
			}
			mode := fmt.Sprintf("scatter-gather over %d shard processes, partial states merged in shard order", len(c.backends))
			if sel.Visibility == sql.VisibilityOpen || !sel.IsAggregate() {
				mode = "pass-through to shard 0 (not partial-executable; every shard holds the full data)"
			}
			res := &exec.Result{Columns: []string{"property", "value"}}
			res.Rows = append(res.Rows,
				[]value.Value{value.Text("fleet"), value.Text(mode)},
				[]value.Value{value.Text("fleet generation"), value.Text(strconv.FormatUint(c.gen.Load(), 10))},
			)
			if nr, eligible := c.replicaCounts(); nr > 0 {
				res.Rows = append(res.Rows, []value.Value{
					value.Text("replicas"),
					value.Text(fmt.Sprintf("reads fan out over %d follower replicas (%d caught up to generation %d) plus primaries, balanced by EWMA latency with failover", nr, eligible, c.gen.Load())),
				})
			}
			res.Rows = append(res.Rows, shardPlan.Rows...)
			return wire.EncodeResult(res), nil
		}), nil
	})
}

// replicaCounts reports how many replicas are configured and how many are
// currently caught up to the fleet generation.
func (c *Coordinator) replicaCounts() (total, caughtUp int) {
	gen := c.gen.Load()
	for _, slot := range c.backends {
		for _, b := range slot[1:] {
			total++
			if b.genKnown.Load() && b.gen.Load() == gen {
				caughtUp++
			}
		}
	}
	return total, caughtUp
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	out := wire.CoordHealthResponse{
		Status:     "ok",
		UptimeSecs: time.Since(c.started).Seconds(),
		Shards:     make(map[string]bool, len(c.backends)),
	}
	type probe struct {
		b     *backend
		alive bool
	}
	var probes []*probe
	for _, slot := range c.backends {
		for _, b := range slot {
			probes = append(probes, &probe{b: b})
		}
	}
	var wg sync.WaitGroup
	for _, p := range probes {
		wg.Add(1)
		go func(p *probe) {
			defer wg.Done()
			_, err := p.b.cli.HealthContext(ctx)
			p.alive = err == nil
		}(p)
	}
	wg.Wait()
	for _, p := range probes {
		if p.b.replica {
			if out.Replicas == nil {
				out.Replicas = make(map[string]bool)
			}
			out.Replicas[fmt.Sprintf("%d/%s", p.b.shard, p.b.url)] = p.alive
		} else {
			out.Shards[p.b.url] = p.alive
		}
		if !p.alive {
			out.Status = "degraded"
		}
	}
	server.WriteJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	gen := c.gen.Load()
	out := wire.CoordStatsResponse{
		AdmissionStats: c.kernel.AdmissionStats(),
		UptimeSecs:     time.Since(c.started).Seconds(),
		Shards:         append([]string(nil), c.cfg.Shards...),
		Generation:     gen,
		Queries:        c.queries.Load(),
		Scattered:      c.scattered.Load(),
		PassThrough:    c.passThrough.Load(),
		Execs:          c.execs.Load(),
		Explains:       c.explains.Load(),
		Unavailable:    c.unavail.Load(),
		ShardErrors:    c.shardErrors.Load(),
		PrimaryReads:   c.primaryReads.Load(),
		ReplicaReads:   c.replicaReads.Load(),
		Failovers:      c.failovers.Load(),
	}
	for _, slot := range c.backends {
		for _, b := range slot {
			bs := wire.BackendStats{
				Shard:     b.shard,
				URL:       b.url,
				Role:      "primary",
				Reads:     b.reads.Load(),
				Failovers: b.failovers.Load(),
				EWMAMs:    float64(b.ewmaNs.Load()) / 1e6,
			}
			if b.replica {
				bs.Role = "replica"
				if b.genKnown.Load() {
					bs.Generation = b.gen.Load()
					if bs.Generation <= gen {
						bs.Lag = gen - bs.Generation
					}
					bs.CaughtUp = bs.Generation == gen
				}
			} else {
				bs.Generation = gen
				bs.CaughtUp = true
			}
			out.Backends = append(out.Backends, bs)
		}
	}
	server.WriteJSON(w, http.StatusOK, out)
}
