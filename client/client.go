// Package client is a thin Go client for a mosaic-serve instance. It mirrors
// the mosaic.DB query surface (Query, Run, Exec, Scalar) over HTTP, decoding
// answers into the same Result/Value types an in-process engine returns —
// byte-for-byte identical values, as internal/server's
// TestNetworkAnswersMatchInProcess verifies.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"mosaic"
	"mosaic/internal/value"
	"mosaic/internal/wire"
)

// Client talks to one mosaic-serve base URL (e.g. "http://127.0.0.1:7171").
type Client struct {
	base     string
	http     *http.Client
	retry    *RetryPolicy // nil = no retries (see WithRetry)
	priority string       // "" = server-derived default (see WithPriority)
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom transport,
// timeout, tracing).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New creates a client for the given base URL. The client imposes no
// request timeout of its own — the server's -request-timeout bounds every
// request (504 on expiry), and a cold OPEN query can legitimately train for
// longer than any fixed client-side cap. Use the *Context methods or
// WithHTTPClient to impose a local deadline.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// RemoteError is a non-2xx answer from the server. RetryAfter carries the
// server's Retry-After hint on 503 shed/overload answers (0 when absent) —
// the retry policy honors it, and callers implementing their own backoff
// should too.
type RemoteError struct {
	StatusCode int
	Message    string
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("mosaic server: %d: %s", e.StatusCode, e.Message)
}

// maxResponseBytes caps a JSON response body: a longer body is an error,
// never a truncated parse. A variable so tests can lower it.
var maxResponseBytes int64 = 64 << 20

// do marshals body once and routes through the retry loop (a no-op unless
// WithRetry is configured and the path is idempotent).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var raw []byte
	if body != nil {
		var err error
		raw, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	return c.doRetry(ctx, method, path, raw, out)
}

// doOnce performs exactly one HTTP round trip. A context deadline propagates
// to the server as X-Mosaic-Deadline-Ms (the remaining budget at send time),
// so the server's admission controller can shed doomed work before
// executing it.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	priority := c.priority
	if p, ok := ctx.Value(priorityKey{}).(string); ok {
		priority = p
	}
	if priority != "" {
		req.Header.Set(wire.PriorityHeader, priority)
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 0 {
			ms = 0
		}
		req.Header.Set(wire.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		switch o := out.(type) {
		case *snapshotBody:
			return o.read(resp)
		case *deltaBody:
			if err := checkSnapshotFormat(resp); err != nil {
				return err
			}
		}
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return err
	}
	if int64(len(raw)) > maxResponseBytes {
		return fmt.Errorf("mosaic client: response body exceeds the client's %d-byte cap", maxResponseBytes)
	}
	if resp.StatusCode/100 != 2 {
		re := &RemoteError{StatusCode: resp.StatusCode}
		re.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		var werr wire.ErrorResponse
		if json.Unmarshal(raw, &werr) == nil && werr.Error != "" {
			re.Message = werr.Error
		} else {
			re.Message = strings.TrimSpace(string(raw))
		}
		return re
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("mosaic client: bad response body: %v", err)
	}
	return nil
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delta-seconds ("3") or an HTTP-date ("Wed, 21 Oct 2026 07:28:00 GMT",
// including the obsolete RFC 850 and asctime spellings http.ParseTime
// accepts). A date in the past, an unparseable value, or an absent header
// yield 0.
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// QueryContext runs a single SELECT on the server. Cancelling ctx (or
// letting its deadline expire) cancels the statement server-side too: the
// server threads the request context into the engine, so abandoned queries
// stop consuming server CPU.
func (c *Client) QueryContext(ctx context.Context, query string) (*mosaic.Result, error) {
	return c.QueryParamsContext(ctx, query)
}

// Query runs a single SELECT on the server.
func (c *Client) Query(query string) (*mosaic.Result, error) {
	return c.QueryContext(context.Background(), query)
}

// QueryParamsContext runs a parameterized SELECT: params bind the query's
// `?` placeholders in order. Values travel in the tagged wire encoding, so
// the answer is byte-identical to the same query with the literals inlined.
func (c *Client) QueryParamsContext(ctx context.Context, query string, params ...any) (*mosaic.Result, error) {
	cells, err := encodeParams(params)
	if err != nil {
		return nil, err
	}
	var w wire.Result
	if err := c.do(ctx, http.MethodPost, "/v1/query", wire.QueryRequest{Query: query, Params: cells}, &w); err != nil {
		return nil, err
	}
	return wire.DecodeResult(&w)
}

// QueryParams runs a parameterized SELECT (see QueryParamsContext).
func (c *Client) QueryParams(query string, params ...any) (*mosaic.Result, error) {
	return c.QueryParamsContext(context.Background(), query, params...)
}

// QueryRawContext runs an already-encoded wire query request and returns the
// raw wire result without decoding. The fleet coordinator's pass-through
// path uses it to relay a shard's answer byte-for-byte; ordinary callers
// want QueryContext.
func (c *Client) QueryRawContext(ctx context.Context, req *wire.QueryRequest) (*wire.Result, error) {
	var w wire.Result
	if err := c.do(ctx, http.MethodPost, "/v1/query", req, &w); err != nil {
		return nil, err
	}
	return &w, nil
}

// PartialContext requests one shard's partial aggregate states — the fleet
// coordinator's scatter primitive (POST /v1/partial). The path is
// idempotent, so WithRetry replays it like a query. Ordinary callers never
// need it.
func (c *Client) PartialContext(ctx context.Context, req *wire.PartialRequest) (*wire.PartialResponse, error) {
	var w wire.PartialResponse
	if err := c.do(ctx, http.MethodPost, "/v1/partial", req, &w); err != nil {
		return nil, err
	}
	return &w, nil
}

// encodeParams coerces Go-native parameters to wire cells.
func encodeParams(params []any) ([]wire.Cell, error) {
	if len(params) == 0 {
		return nil, nil
	}
	vals := make([]mosaic.Value, len(params))
	for i, p := range params {
		v, err := value.FromRaw(p)
		if err != nil {
			return nil, fmt.Errorf("mosaic client: parameter %d: %v", i+1, err)
		}
		vals[i] = v
	}
	return wire.EncodeValues(vals), nil
}

// Stmt is a prepared-statement-style handle: the query text is fixed at
// Prepare time and parameters bind per execution, mirroring
// mosaic.DB.Prepare's API shape over HTTP. The handle is connection-free;
// each execution travels as one parameterized /v1/query request (the wire
// protocol is stateless, so the parse/plan amortization lives in-process on
// the server side, not per handle).
type Stmt struct {
	c     *Client
	query string
}

// Prepare returns a prepared-statement-style handle for query.
func (c *Client) Prepare(query string) *Stmt {
	return &Stmt{c: c, query: query}
}

// Text returns the statement's SQL text.
func (s *Stmt) Text() string { return s.query }

// Query executes the statement with params bound to its placeholders.
func (s *Stmt) Query(params ...any) (*mosaic.Result, error) {
	return s.c.QueryParams(s.query, params...)
}

// QueryContext is Query with a cancellation context.
func (s *Stmt) QueryContext(ctx context.Context, params ...any) (*mosaic.Result, error) {
	return s.c.QueryParamsContext(ctx, s.query, params...)
}

// RunContext executes a semicolon-separated script and returns the result of
// every statement (nil for DDL/DML), mirroring mosaic.DB.Run.
func (c *Client) RunContext(ctx context.Context, script string) ([]*mosaic.Result, error) {
	out, _, err := c.RunGenerationContext(ctx, script)
	return out, err
}

// ExecRawContext executes a script and returns the raw wire response without
// decoding — the fleet coordinator's fan-out primitive, letting it relay one
// shard's answer byte-for-byte. Like every /v1/exec call it is never retried.
func (c *Client) ExecRawContext(ctx context.Context, script string) (*wire.ExecResponse, error) {
	var w wire.ExecResponse
	if err := c.do(ctx, http.MethodPost, "/v1/exec", wire.ExecRequest{Script: script}, &w); err != nil {
		return nil, err
	}
	return &w, nil
}

// RunGenerationContext is RunContext plus the server's DDL/DML generation
// counter after the script ran — the fleet coordinator's handshake for
// confirming that every shard landed on the same state after a fanned-out
// exec. Like /v1/exec itself it is never retried.
func (c *Client) RunGenerationContext(ctx context.Context, script string) ([]*mosaic.Result, uint64, error) {
	w, err := c.ExecRawContext(ctx, script)
	if err != nil {
		return nil, 0, err
	}
	out := make([]*mosaic.Result, len(w.Results))
	for i, res := range w.Results {
		dec, err := wire.DecodeResult(res)
		if err != nil {
			return nil, 0, err
		}
		out[i] = dec
	}
	return out, w.Generation, nil
}

// Run executes a semicolon-separated script, mirroring mosaic.DB.Run.
func (c *Client) Run(script string) ([]*mosaic.Result, error) {
	return c.RunContext(context.Background(), script)
}

// Exec executes DDL/DML statements, discarding any SELECT results.
func (c *Client) Exec(script string) error {
	_, err := c.Run(script)
	return err
}

// ExecContext is Exec with a cancellation context.
func (c *Client) ExecContext(ctx context.Context, script string) error {
	_, err := c.RunContext(ctx, script)
	return err
}

// Scalar runs a query expected to return a single 1×1 numeric answer.
// Optional params bind `?` placeholders.
func (c *Client) Scalar(query string, params ...any) (float64, error) {
	return c.ScalarContext(context.Background(), query, params...)
}

// ScalarContext is Scalar with a cancellation context.
func (c *Client) ScalarContext(ctx context.Context, query string, params ...any) (float64, error) {
	res, err := c.QueryParamsContext(ctx, query, params...)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("mosaic client: query returned %d rows × %d columns, want 1×1", len(res.Rows), len(res.Columns))
	}
	return res.Rows[0][0].Float64()
}

// ExplainContext asks the server how it would answer the query, bounded by
// ctx (so a dead server cannot hang the caller forever).
func (c *Client) ExplainContext(ctx context.Context, query string) (*mosaic.Result, error) {
	var w wire.Result
	path := "/v1/explain?q=" + url.QueryEscape(query)
	if err := c.do(ctx, http.MethodGet, path, nil, &w); err != nil {
		return nil, err
	}
	return wire.DecodeResult(&w)
}

// Explain asks the server how it would answer the query.
func (c *Client) Explain(query string) (*mosaic.Result, error) {
	return c.ExplainContext(context.Background(), query)
}

// HealthStatus is the decoded /healthz answer of a mosaic-serve or
// mosaic-coord process. Status is "ok" or "degraded"; the detail fields are
// populated according to what the target is: a follower reports its
// replication state, a coordinator reports per-shard and per-replica
// liveness.
type HealthStatus struct {
	Status     string
	UptimeSecs float64
	// Follower reports replication state when the target runs in follower
	// mode (mosaic-serve -follow).
	Follower *wire.FollowerStats
	// Shards and Replicas report per-backend liveness when the target is a
	// coordinator (replica keys are "shard/URL").
	Shards   map[string]bool
	Replicas map[string]bool
}

// Degraded reports whether the process answered but declared itself
// degraded — a stale follower, or a coordinator with a dead backend.
func (h *HealthStatus) Degraded() bool { return h.Status != "ok" }

// HealthContext fetches and decodes the server's /healthz, bounded by ctx.
// A non-nil status with Degraded() true means the process is alive but
// impaired; an error means it did not answer coherently at all.
func (c *Client) HealthContext(ctx context.Context) (*HealthStatus, error) {
	var raw struct {
		Status     string              `json:"status"`
		UptimeSecs float64             `json:"uptime_secs"`
		Follower   *wire.FollowerStats `json:"follower"`
		Shards     map[string]bool     `json:"shards"`
		Replicas   map[string]bool     `json:"replicas"`
	}
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &raw); err != nil {
		return nil, err
	}
	return &HealthStatus{
		Status:     raw.Status,
		UptimeSecs: raw.UptimeSecs,
		Follower:   raw.Follower,
		Shards:     raw.Shards,
		Replicas:   raw.Replicas,
	}, nil
}

// Health checks the server's liveness endpoint.
func (c *Client) Health() error {
	_, err := c.HealthContext(context.Background())
	return err
}

// SnapshotContext fetches the server's full dump script plus the generation
// it captures (GET /v1/snapshot) — the follower bootstrap primitive. The
// script travels as a text/plain body whose Content-Length it is checked
// against: a short body is an error, never a shorter script. An answer in
// a snapshot format other than wire.SnapshotFormat is a *FormatError.
func (c *Client) SnapshotContext(ctx context.Context) (*wire.SnapshotResponse, error) {
	var w snapshotBody
	if err := c.do(ctx, http.MethodGet, "/v1/snapshot", nil, &w); err != nil {
		return nil, err
	}
	return &w.SnapshotResponse, nil
}

// snapshotBody is the out value of GET /v1/snapshot, whose 2xx body is text,
// not JSON.
type snapshotBody struct{ wire.SnapshotResponse }

// read takes the script, read whole into one buffer sized from
// Content-Length, and the generation header.
func (sb *snapshotBody) read(resp *http.Response) error {
	if err := checkSnapshotFormat(resp); err != nil {
		return err
	}
	gen, err := strconv.ParseUint(resp.Header.Get(wire.GenerationHeader), 10, 64)
	if err != nil {
		return fmt.Errorf("mosaic client: snapshot: bad %s header: %v", wire.GenerationHeader, err)
	}
	n := resp.ContentLength
	if n < 0 {
		return errors.New("mosaic client: snapshot: no Content-Length")
	}
	var b strings.Builder
	b.Grow(int(min(n, 1<<30))) // a declared length is not yet bytes received
	got, err := io.Copy(&b, io.LimitReader(resp.Body, n))
	if err == nil && got < n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("mosaic client: snapshot: read %d of %d bytes: %w", got, n, err)
	}
	sb.Script, sb.Generation = b.String(), gen
	return nil
}

// SnapshotDeltaContext fetches the statement suffix advancing generation
// `from` to the primary's current generation (GET /v1/snapshot/delta). A
// *RemoteError with StatusCode 410 (Gone) means `from` fell out of the
// primary's bounded statement log and the follower must re-bootstrap from
// SnapshotContext. An answer in a snapshot format other than
// wire.SnapshotFormat is a *FormatError.
func (c *Client) SnapshotDeltaContext(ctx context.Context, from uint64) (*wire.DeltaResponse, error) {
	var w deltaBody
	if err := c.do(ctx, http.MethodGet, "/v1/snapshot/delta?from="+strconv.FormatUint(from, 10), nil, &w); err != nil {
		return nil, err
	}
	return &w.DeltaResponse, nil
}

// deltaBody is the out value of GET /v1/snapshot/delta: JSON, in the
// snapshot format the client reads.
type deltaBody struct{ wire.DeltaResponse }

// A FormatError is a replication answer, from GET /v1/snapshot or
// /v1/snapshot/delta, whose wire.SnapshotFormatHeader is missing or names
// a format other than wire.SnapshotFormat: a primary of another version.
// Nothing of the answer is returned, so nothing of it can be replayed.
type FormatError struct {
	Got string // the header's value, "" when there is none
}

func (e *FormatError) Error() string {
	if e.Got == "" {
		return fmt.Sprintf("mosaic client: the replication answer names no snapshot format (%s); this client reads format %s",
			wire.SnapshotFormatHeader, wire.SnapshotFormat)
	}
	return fmt.Sprintf("mosaic client: the replication answer is in snapshot format %q; this client reads format %s",
		e.Got, wire.SnapshotFormat)
}

// checkSnapshotFormat refuses a replication answer in another format.
func checkSnapshotFormat(resp *http.Response) error {
	if got := resp.Header.Get(wire.SnapshotFormatHeader); got != wire.SnapshotFormat {
		return &FormatError{Got: got}
	}
	return nil
}

// StatsContext fetches the server's /statsz counters, bounded by ctx.
func (c *Client) StatsContext(ctx context.Context) (*wire.StatsResponse, error) {
	var s wire.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/statsz", nil, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Stats fetches the server's /statsz counters.
func (c *Client) Stats() (*wire.StatsResponse, error) {
	return c.StatsContext(context.Background())
}
