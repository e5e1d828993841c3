package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/faulty"
	"mosaic/internal/wire"
)

// auditTransport counts every 503 that crosses it, and how many of those
// came without a Retry-After hint.
type auditTransport struct {
	base        http.RoundTripper
	unavailable atomic.Int64
	unhinted    atomic.Int64
}

func (a *auditTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := a.base.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusServiceUnavailable {
		a.unavailable.Add(1)
		if resp.Header.Get("Retry-After") == "" {
			a.unhinted.Add(1)
		}
	}
	return resp, err
}

// TestOverloadBehindFlakyProxy is the whole overload contract in one piece —
// admission fairness, shedding, Retry-After, client retries and the fault
// proxy are each pinned alone elsewhere, this is the only place they meet.
// One undersized server sits behind a proxy that drops and truncates
// connections; batch-priority clients flood it with OPEN queries while
// interactive-priority clients race deadline-bounded CLOSED / SEMI-OPEN
// queries through the retrying client. Required, in counts and bytes only:
// every delivered answer is byte-identical to an in-process engine restored
// from the same dump, no interactive query gives up, every 503 seen on the
// wire carries Retry-After, and zero-deadline probes are shed before the
// engine (the per-visibility query counters do not move).
func TestOverloadBehindFlakyProxy(t *testing.T) {
	seed := mosaic.Open(testOpts())
	if err := seed.Exec(worldScript); err != nil {
		t.Fatal(err)
	}
	dump, err := seed.Dump()
	if err != nil {
		t.Fatal(err)
	}
	served, ref := mosaic.Open(testOpts()), mosaic.Open(testOpts())
	for _, db := range []*mosaic.DB{served, ref} {
		if err := db.Restore(dump); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newRawServer(t, Config{DB: served, QoS: QoSConfig{MaxConcurrent: 2, BatchMaxConcurrent: 1}, RequestTimeout: time.Minute})
	proxy := &faulty.Proxy{Target: strings.TrimPrefix(ts.URL, "http://"), DropEvery: 7, TruncateEvery: 11}
	addr, err := proxy.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	flaky := "http://" + addr

	// One connection per request, so the proxy's per-connection fault
	// schedule really bites instead of being ridden out on keep-alives.
	audit := &auditTransport{base: &http.Transport{DisableKeepAlives: true}}
	hc := &http.Client{Transport: audit}
	retry := client.WithRetry(client.RetryPolicy{
		MaxRetries: 10, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond, Budget: time.Minute,
	})

	// Warm through the fault-free path: pins the reference bytes and trains
	// the served model, so the flood below is all serving.
	direct := client.New(ts.URL, client.WithHTTPClient(hc))
	want := make(map[string]string, len(worldQueries))
	for _, q := range worldQueries {
		res, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = render(res)
		got, err := direct.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != want[q] {
			t.Fatalf("%q diverged over HTTP before any fault", q)
		}
	}

	classes := []struct {
		priority string
		queries  []string
	}{
		{"batch", worldQueries[2:]},
		{"interactive", worldQueries[:2]},
	}
	const clientsPerClass, perClient = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, len(classes)*clientsPerClass)
	for _, cls := range classes {
		for c := 0; c < clientsPerClass; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := client.New(flaky, client.WithHTTPClient(hc), retry, client.WithPriority(cls.priority))
				for i := 0; i < perClient; i++ {
					q := cls.queries[(c+i)%len(cls.queries)]
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					res, err := cl.QueryContext(ctx, q)
					cancel()
					if err != nil {
						errs <- fmt.Errorf("%s client %d gave up on %q: %v", cls.priority, c, q, err)
						return
					}
					if render(res) != want[q] {
						errs <- fmt.Errorf("%s client %d: %q diverged from the in-process reference", cls.priority, c, q)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if proxy.Dropped.Load() == 0 || proxy.Truncated.Load() == 0 {
		t.Errorf("proxy dropped %d and truncated %d connections — the fault injection never engaged",
			proxy.Dropped.Load(), proxy.Truncated.Load())
	}

	before, err := direct.Stats()
	if err != nil {
		t.Fatal(err)
	}
	const probes = 5
	body, _ := json.Marshal(wire.QueryRequest{Query: worldQueries[0]})
	for i := 0; i < probes; i++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(wire.DeadlineHeader, "0")
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("zero-deadline probe %d answered %d, want 503", i, resp.StatusCode)
		}
	}
	after, err := direct.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for vis, b := range before.Visibilities {
		if a := after.Visibilities[vis].Queries; a != b.Queries {
			t.Errorf("zero-deadline probes reached the engine: %s query counter %d → %d", vis, b.Queries, a)
		}
	}
	if got := after.Shed - before.Shed; got != probes {
		t.Errorf("shed counter moved by %d over %d zero-deadline probes", got, probes)
	}
	if n, bad := audit.unavailable.Load(), audit.unhinted.Load(); n < probes || bad != 0 {
		t.Errorf("%d of the %d 503s seen on the wire lacked Retry-After (want 0 of at least %d)", bad, n, probes)
	}
}
