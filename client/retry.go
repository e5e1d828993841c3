package client

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// RetryPolicy configures automatic retries of idempotent requests. The
// client retries only read paths — /v1/query, /v1/explain, /healthz,
// /statsz; NEVER /v1/exec, whose scripts mutate state and are not safe to
// replay — and only on outcomes that signal a transient condition: a 503
// (overloaded or shedding server; the Retry-After hint is honored) or a
// connection-level transport error (refused, reset, dropped mid-response).
// Engine errors, 4xx answers, and 504s are never retried: the server already
// spent the request's deadline.
//
// Waits follow exponential backoff with jitter: attempt n waits
// min(BaseBackoff·2ⁿ, MaxBackoff), randomized into [w·(1-Jitter), w]. A
// server Retry-After hint replaces the exponential schedule for that
// attempt, but is still clamped to MaxBackoff and jittered — the hint steers
// the wait, it never overrides the policy's caps. Budget caps the total time
// spent across all attempts and waits.
type RetryPolicy struct {
	// MaxRetries is the number of retry attempts after the first try.
	// Default 3.
	MaxRetries int
	// BaseBackoff is the first retry's nominal wait. Default 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 5s.
	MaxBackoff time.Duration
	// Budget caps the total elapsed time across attempts and waits: when a
	// wait would exceed it, the last error returns instead. Default 30s.
	Budget time.Duration
	// Jitter is the randomized fraction of each wait, in [0, 1]: the actual
	// wait is uniform in [w·(1-Jitter), w]. Default 0.5; negative disables
	// jitter entirely (deterministic waits, for tests).
	Jitter float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.Budget <= 0 {
		p.Budget = 30 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// WithRetry enables automatic retries of idempotent requests under p.
// Zero-valued fields take their documented defaults.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) {
		pol := p.withDefaults()
		c.retry = &pol
	}
}

// WithPriority sets the X-Mosaic-Priority class ("interactive" or "batch")
// sent with every request, overriding the server's visibility-derived
// default.
func WithPriority(class string) Option {
	return func(c *Client) { c.priority = class }
}

type priorityKey struct{}

// ContextWithPriority overrides WithPriority for every call made under the
// returned context. The fleet coordinator uses it to forward one inbound
// request's X-Mosaic-Priority on all of that request's shard and replica
// calls through its long-lived per-backend clients.
func ContextWithPriority(ctx context.Context, class string) context.Context {
	return context.WithValue(ctx, priorityKey{}, class)
}

// jitterMu guards the shared jitter source (math/rand's global source is
// also fine, but a dedicated one keeps the client self-contained).
var (
	jitterMu  sync.Mutex
	jitterRNG = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func jitterFloat() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterRNG.Float64()
}

// idempotentPath reports whether path is safe to replay. /v1/exec mutates
// state and is excluded by design.
func idempotentPath(path string) bool {
	switch path {
	case "/v1/query", "/v1/partial", "/v1/snapshot", "/healthz", "/statsz":
		return true
	}
	if len(path) >= len("/v1/snapshot/delta") && path[:len("/v1/snapshot/delta")] == "/v1/snapshot/delta" {
		return true
	}
	return len(path) >= len("/v1/explain") && path[:len("/v1/explain")] == "/v1/explain"
}

// retryable classifies err: a 503 RemoteError (with its Retry-After hint)
// or a connection-level transport error. Context cancellation is never
// retryable — the caller's deadline is spent.
func retryable(err error) (wait time.Duration, ok bool) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 0, false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		if re.StatusCode == http.StatusServiceUnavailable {
			return re.RetryAfter, true
		}
		return 0, false
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		// Connection refused/reset, dropped mid-body, proxy failures — the
		// request may never have reached the engine; idempotent paths are
		// safe to replay.
		return 0, true
	}
	return 0, false
}

// backoff computes attempt n's wait (n counts from 0), honoring a server
// Retry-After hint when present. The hint replaces the exponential schedule
// but never escapes the policy: it is clamped to MaxBackoff (a skewed or
// hostile hint must not burn the whole Budget in one wait) and jittered like
// any other wait (synchronized clients all honoring the same whole-second
// hint would otherwise herd back on the same instant).
func (p RetryPolicy) backoff(n int, retryAfter time.Duration) time.Duration {
	w := retryAfter
	if w <= 0 {
		w = p.BaseBackoff << uint(n)
	}
	if w <= 0 || w > p.MaxBackoff {
		w = p.MaxBackoff
	}
	if p.Jitter > 0 {
		f := 1 - p.Jitter*jitterFloat()
		w = time.Duration(float64(w) * f)
	}
	return w
}

// doRetry wraps one doOnce call in the retry loop. Non-idempotent paths pass
// straight through.
func (c *Client) doRetry(ctx context.Context, method, path string, body []byte, out any) error {
	if c.retry == nil || !idempotentPath(path) {
		return c.doOnce(ctx, method, path, body, out)
	}
	p := *c.retry
	start := time.Now()
	var err error
	for attempt := 0; ; attempt++ {
		err = c.doOnce(ctx, method, path, body, out)
		if err == nil || attempt >= p.MaxRetries {
			return err
		}
		hint, ok := retryable(err)
		if !ok {
			return err
		}
		wait := p.backoff(attempt, hint)
		if time.Since(start)+wait > p.Budget {
			return err
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return err
		}
	}
}
