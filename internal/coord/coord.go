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
// than no answer.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mosaic/client"
	"mosaic/internal/exec"
	"mosaic/internal/sql"
	"mosaic/internal/value"
	"mosaic/internal/wire"
)

// deadlineHeader mirrors the mosaic-serve header: the client's remaining
// budget in milliseconds, intersected with the coordinator's own
// RequestTimeout and re-propagated to every shard call.
const deadlineHeader = "X-Mosaic-Deadline-Ms"

// priorityHeader mirrors the mosaic-serve header. The coordinator has no
// admission classes of its own: it validates the class as a shard would and
// forwards it verbatim on every shard and replica call of the request, so
// the shards admit fleet traffic by the class the caller asked for.
const priorityHeader = "X-Mosaic-Priority"

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
	// client-propagated X-Mosaic-Deadline-Ms. Default 30s.
	RequestTimeout time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ReplicaPollInterval <= 0 {
		c.ReplicaPollInterval = 250 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
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
	c := &Coordinator{cfg: cfg, started: time.Now()}
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

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, wire.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeUnavailable answers 503 with a Retry-After hint — the coordinator's
// only failure answer for shard trouble; it never serves a partial result.
func (c *Coordinator) writeUnavailable(w http.ResponseWriter, hint time.Duration, format string, args ...any) {
	c.unavail.Add(1)
	secs := int(hint.Round(time.Second).Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusServiceUnavailable, format, args...)
}

// decodeBody decodes a JSON body under the shards' own default cap,
// wire.MaxBodyBytes (413 oversized, 400 malformed), reporting success.
func (c *Coordinator) decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	body := http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", mbe.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// requestCtx derives the request's end-to-end deadline: RequestTimeout
// intersected with any propagated X-Mosaic-Deadline-Ms. The remaining budget
// and any X-Mosaic-Priority class re-propagate to every shard call through
// the client's own header logic.
func (c *Coordinator) requestCtx(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	parent := r.Context()
	if raw := r.Header.Get(priorityHeader); raw != "" {
		if cl := strings.ToLower(raw); cl != "interactive" && cl != "batch" {
			writeError(w, http.StatusBadRequest, "bad %s %q: want interactive or batch", priorityHeader, raw)
			return nil, nil, false
		}
		parent = client.ContextWithPriority(parent, raw)
	}
	timeout := c.cfg.RequestTimeout
	if raw := r.Header.Get(deadlineHeader); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad %s %q: want integer milliseconds", deadlineHeader, raw)
			return nil, nil, false
		}
		budget := time.Duration(ms) * time.Millisecond
		if budget <= 0 {
			c.writeUnavailable(w, time.Second, "deadline already expired (budget %s)", budget)
			return nil, nil, false
		}
		if budget < timeout {
			timeout = budget
		}
	}
	ctx, cancel := context.WithTimeout(parent, timeout)
	return ctx, cancel, true
}

// relayRemote relays a backend's answer for non-routed paths: deterministic
// engine answers (4xx) travel verbatim; everything else — transport
// failures, backend 5xx — becomes the coordinator's own 503.
func (c *Coordinator) relayRemote(w http.ResponseWriter, err error, what string) {
	c.shardErrors.Add(1)
	var re *client.RemoteError
	if errors.As(err, &re) {
		if re.StatusCode/100 == 4 {
			writeError(w, re.StatusCode, "%s", re.Message)
			return
		}
		c.writeUnavailable(w, re.RetryAfter, "%s unavailable: %s", what, re.Message)
		return
	}
	c.writeUnavailable(w, 0, "%s unreachable: %v", what, err)
}

// readUnavailable turns the LAST failover error for a shard slot into the
// coordinator's 503 — reached only after every candidate backend failed.
func (c *Coordinator) readUnavailable(w http.ResponseWriter, err error, shard int) {
	var re *client.RemoteError
	if errors.As(err, &re) {
		if re.StatusCode == http.StatusConflict {
			c.writeUnavailable(w, re.RetryAfter, "shard %d diverged from fleet generation %d: %s", shard, c.gen.Load(), re.Message)
			return
		}
		c.writeUnavailable(w, re.RetryAfter, "shard %d unavailable on every backend: %s", shard, re.Message)
		return
	}
	c.writeUnavailable(w, 0, "shard %d unreachable on every backend: %v", shard, err)
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req wire.QueryRequest
	if !c.decodeBody(w, r, &req) {
		return
	}
	sel, err := sql.ParseQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, ok := c.requestCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	c.queries.Add(1)
	c.fleetMu.RLock()
	defer c.fleetMu.RUnlock()
	// OPEN queries train generative models on the unified view and
	// non-aggregate shapes return raw tuples — neither decomposes into
	// mergeable partial states. Both pass through whole; every shard holds
	// the full data, so shard 0's answer IS the fleet's answer.
	if sel.Visibility == sql.VisibilityOpen || !sel.IsAggregate() {
		c.passQueryLocked(ctx, w, &req)
		return
	}
	c.scatterQueryLocked(ctx, w, &req, sel)
}

// passQueryLocked relays the whole query to shard slot 0 — primary or any
// caught-up replica, cheapest first — and the winning answer verbatim,
// failing over until a backend answers. Callers hold fleetMu.RLock.
func (c *Coordinator) passQueryLocked(ctx context.Context, w http.ResponseWriter, req *wire.QueryRequest) {
	gen := c.gen.Load()
	var lastErr error
	for _, b := range c.readCandidates(0) {
		rq := *req
		if b.replica {
			// Pin the replica to the fleet generation: a follower that lags
			// or catches up mid-query refuses instead of answering from a
			// different state than the primary's.
			rq.Generation = gen
			rq.CheckGeneration = true
		}
		start := time.Now()
		res, err := b.cli.QueryRawContext(ctx, &rq)
		if err == nil {
			b.observe(time.Since(start))
			c.countRead(b)
			c.passThrough.Add(1)
			writeJSON(w, http.StatusOK, res)
			return
		}
		c.shardErrors.Add(1)
		var re *client.RemoteError
		if errors.As(err, &re) && re.StatusCode/100 == 4 && re.StatusCode != http.StatusConflict {
			// Deterministic engine errors answer identically on every
			// backend: relay, don't fail over.
			writeError(w, re.StatusCode, "%s", re.Message)
			return
		}
		b.failovers.Add(1)
		c.failovers.Add(1)
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	c.readUnavailable(w, lastErr, 0)
}

// shardPartial runs one shard slot's scatter leg with failover: try every
// eligible backend (cheapest EWMA first) until one returns the slot's
// partial states. Deterministic engine errors (4xx except the generation
// 409) return immediately — they answer identically everywhere.
func (c *Coordinator) shardPartial(ctx context.Context, shard int, req *wire.PartialRequest) (*wire.PartialResponse, error) {
	var lastErr error
	for _, b := range c.readCandidates(shard) {
		start := time.Now()
		resp, err := b.cli.PartialContext(ctx, req)
		if err == nil {
			b.observe(time.Since(start))
			c.countRead(b)
			return resp, nil
		}
		c.shardErrors.Add(1)
		lastErr = err
		var re *client.RemoteError
		if errors.As(err, &re) && re.StatusCode/100 == 4 && re.StatusCode != http.StatusConflict {
			return nil, err
		}
		b.failovers.Add(1)
		c.failovers.Add(1)
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

// scatterQueryLocked fans the partial plan over every shard slot, gathers
// the states in fixed shard order, and finishes the aggregation (merge,
// HAVING, ORDER BY, LIMIT) locally. Each slot fails over across its
// backends; a slot where every backend fails, declines, or answers at the
// wrong generation aborts the whole answer. Callers hold fleetMu.RLock.
func (c *Coordinator) scatterQueryLocked(ctx context.Context, w http.ResponseWriter, req *wire.QueryRequest, sel *sql.Select) {
	gen := c.gen.Load()
	n := len(c.backends)
	resps := make([]*wire.PartialResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.shardPartial(ctx, i, &wire.PartialRequest{
				Query:           req.Query,
				Params:          req.Params,
				Shard:           i,
				Shards:          n,
				Generation:      gen,
				CheckGeneration: true,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		var re *client.RemoteError
		if errors.As(err, &re) {
			switch {
			case re.StatusCode == http.StatusConflict:
				// Every backend of the slot answered from a diverged or
				// moving generation: refusing is the whole point of the
				// handshake — never answer from it.
				c.writeUnavailable(w, re.RetryAfter, "shard %d diverged from fleet generation %d: %s", i, gen, re.Message)
			case re.StatusCode/100 == 4:
				// Deterministic engine errors (unknown relation, unanswerable
				// visibility) fail identically on every shard; relay the first.
				writeError(w, re.StatusCode, "%s", re.Message)
			default:
				c.writeUnavailable(w, re.RetryAfter, "shard %d unavailable on every backend: %s", i, re.Message)
			}
		} else {
			c.writeUnavailable(w, 0, "shard %d unreachable on every backend: %v", i, err)
		}
		return
	}
	for _, resp := range resps {
		if !resp.Handled {
			// The plan shape is not partial-executable on this engine (e.g.
			// row-path only). Every shard runs the same engine version, so
			// fall back to one whole pass-through query.
			c.passQueryLocked(ctx, w, req)
			return
		}
	}
	partials := make([]*exec.ShardPartial, n)
	for i, resp := range resps {
		p, err := wire.DecodePartial(resp)
		if err != nil {
			c.shardErrors.Add(1)
			writeError(w, http.StatusBadGateway, "shard %d answer undecodable: %v", i, err)
			return
		}
		partials[i] = p
	}
	vals, err := wire.DecodeValues(req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad parameters: %v", err)
		return
	}
	bound, err := sql.BindParams(sel, vals)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := exec.GatherPartials(ctx, bound, partials)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	c.scattered.Add(1)
	writeJSON(w, http.StatusOK, wire.EncodeResult(res))
}

func (c *Coordinator) handleExec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req wire.ExecRequest
	if !c.decodeBody(w, r, &req) {
		return
	}
	ctx, cancel, ok := c.requestCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	c.execs.Add(1)
	// The generation moves: hold the write lock so no read consults a
	// half-updated fleet. Writes go to primaries ONLY — followers replicate
	// them through the statement log and reject direct DDL/DML.
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	n := len(c.backends)
	resps := make([]*wire.ExecResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.backends[i][0].cli.ExecRawContext(ctx, req.Script)
		}(i)
	}
	wg.Wait()
	var firstErr error
	failed := false
	for _, err := range errs {
		if err != nil {
			failed = true
			if firstErr == nil {
				firstErr = err
			}
			c.shardErrors.Add(1)
		}
	}
	if !failed {
		for i, resp := range resps {
			if resp.Generation != resps[0].Generation {
				// All shards applied the script yet disagree on the counter:
				// they were divergent before this exec. Do NOT adopt either
				// side — the stale coordinator generation makes every future
				// scatter 409 into a clean 503 until an operator intervenes.
				c.cfg.Logf("coord: exec left shards diverged: shard 0 at %d, shard %d at %d", resps[0].Generation, i, resp.Generation)
				writeError(w, http.StatusBadGateway, "fleet degraded: shard generations diverged after exec (shard 0 at %d, shard %d at %d)", resps[0].Generation, i, resp.Generation)
				return
			}
		}
		c.gen.Store(resps[0].Generation)
		writeJSON(w, http.StatusOK, resps[0])
		return
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
			c.relayRemote(w, firstErr, "exec fan-out")
			return
		}
	}
	c.cfg.Logf("coord: exec fan-out degraded the fleet: %v (probe: %v)", firstErr, perr)
	writeError(w, http.StatusBadGateway, "fleet degraded: exec failed on some shards and generations diverged: %v", firstErr)
}

func (c *Coordinator) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	sel, err := sql.ParseQuery(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, ok := c.requestCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	c.explains.Add(1)
	c.fleetMu.RLock()
	defer c.fleetMu.RUnlock()
	shardPlan, err := c.backends[0][0].cli.ExplainContext(ctx, q)
	if err != nil {
		c.relayRemote(w, err, "shard 0")
		return
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
	writeJSON(w, http.StatusOK, wire.EncodeResult(res))
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
	writeJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	gen := c.gen.Load()
	out := wire.CoordStatsResponse{
		UptimeSecs:   time.Since(c.started).Seconds(),
		Shards:       append([]string(nil), c.cfg.Shards...),
		Generation:   gen,
		Queries:      c.queries.Load(),
		Scattered:    c.scattered.Load(),
		PassThrough:  c.passThrough.Load(),
		Execs:        c.execs.Load(),
		Explains:     c.explains.Load(),
		Unavailable:  c.unavail.Load(),
		ShardErrors:  c.shardErrors.Load(),
		PrimaryReads: c.primaryReads.Load(),
		ReplicaReads: c.replicaReads.Load(),
		Failovers:    c.failovers.Load(),
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
	writeJSON(w, http.StatusOK, out)
}
