package server

import (
	"strings"
	"testing"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/value"
	"mosaic/internal/wire"
)

// slowOpts makes M-SWG training take far longer than the request timeout.
func slowOpts() *mosaic.Options {
	return &mosaic.Options{
		Seed:        3,
		OpenSamples: 3,
		SWG: mosaic.SWGConfig{
			Hidden: []int{64, 64}, Latent: 2, Epochs: 1000,
			BatchSize: 256, Projections: 64, StepsPerEpoch: 20,
		},
	}
}

// TestTimeoutCancelsWorkAndFreesSlot is the regression test for the old 504
// behavior ("the statement keeps running server-side"): a timed-out OPEN
// query must actually stop server-side — the admission slot frees, the
// in-flight gauge drops to zero (the engine goroutine unwound instead of
// burning CPU to completion), and /statsz counts the cancellation.
func TestTimeoutCancelsWorkAndFreesSlot(t *testing.T) {
	db := mosaic.Open(slowOpts())
	if err := db.Exec(worldScript); err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, Config{DB: db, QoS: QoSConfig{MaxConcurrent: 1}, RequestTimeout: 150 * time.Millisecond})

	_, err := c.Query("SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp")
	re, ok := err.(*client.RemoteError)
	if !ok || re.StatusCode != 504 {
		t.Fatalf("slow OPEN query = %v, want 504 RemoteError", err)
	}
	if got := re.Message; !strings.Contains(got, "cancelled") {
		t.Errorf("504 message %q does not say the statement was cancelled", got)
	}

	// The cancelled engine call must unwind promptly: with MaxConcurrent=1,
	// a follow-up query only runs once the slot is back, and the inflight
	// gauge must hit zero without waiting for the training to "finish".
	deadline := time.Now().Add(10 * time.Second)
	for s.stats.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("inflight never dropped to 0: the engine kept running after the 504")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Query("SELECT CLOSED COUNT(*) FROM World"); err != nil {
		t.Fatalf("follow-up query after 504: %v (admission slot not freed?)", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cancelled == 0 {
		t.Error("/statsz cancelled counter did not move")
	}
	if st.Timeouts == 0 {
		t.Error("/statsz timeouts counter did not move")
	}
}

// TestHTTPParamQueryByteIdentical runs one parameterized query through the
// real HTTP path and requires the answer byte-identical to the same query
// with the literal inlined — the wire-level half of the prepared-statement
// guarantee.
func TestHTTPParamQueryByteIdentical(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if err := c.Exec(worldScript); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		param   string
		literal string
		args    []any
	}{
		{
			"SELECT SEMI-OPEN grp, COUNT(*) FROM World WHERE v > ? GROUP BY grp ORDER BY grp",
			"SELECT SEMI-OPEN grp, COUNT(*) FROM World WHERE v > 0 GROUP BY grp ORDER BY grp",
			[]any{0},
		},
		{
			"SELECT CLOSED COUNT(*) FROM World WHERE grp = ?",
			"SELECT CLOSED COUNT(*) FROM World WHERE grp = 'a'",
			[]any{"a"},
		},
		{
			"SELECT OPEN grp, COUNT(*) FROM World WHERE v >= ? GROUP BY grp ORDER BY grp",
			"SELECT OPEN grp, COUNT(*) FROM World WHERE v >= 0 GROUP BY grp ORDER BY grp",
			[]any{0},
		},
	} {
		want, err := c.Query(q.literal)
		if err != nil {
			t.Fatalf("literal %q: %v", q.literal, err)
		}
		got, err := c.QueryParams(q.param, q.args...)
		if err != nil {
			t.Fatalf("param %q: %v", q.param, err)
		}
		if render(got) != render(want) {
			t.Errorf("param query diverged from literal:\n got %q\nwant %q", render(got), render(want))
		}
		// The prepared-style handle sends the identical request.
		sres, err := c.Prepare(q.param).Query(q.args...)
		if err != nil {
			t.Fatalf("stmt %q: %v", q.param, err)
		}
		if render(sres) != render(want) {
			t.Errorf("client Stmt diverged from literal:\n got %q\nwant %q", render(sres), render(want))
		}
	}
}

// TestParamCountMismatchIs400: binding errors surface as 400s, not engine
// errors.
func TestParamCountMismatchIs400(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if err := c.Exec("CREATE TABLE T (a INT)"); err != nil {
		t.Fatal(err)
	}
	_, err := c.QueryParams("SELECT COUNT(*) FROM T WHERE a > ?") // 1 placeholder, 0 params
	re, ok := err.(*client.RemoteError)
	if !ok || re.StatusCode != 400 {
		t.Fatalf("unbound param = %v, want 400 RemoteError", err)
	}
	_, err = c.QueryParams("SELECT COUNT(*) FROM T", 1, 2)
	re, ok = err.(*client.RemoteError)
	if !ok || re.StatusCode != 400 {
		t.Fatalf("excess params = %v, want 400 RemoteError", err)
	}
}

// TestWireParamRoundTrip pins the tagged-cell param encoding (bit-exact
// floats, big int64s, NULL).
func TestWireParamRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Int(1<<62 + 7),
		value.Float(0.1 + 0.2),
		value.Text("O'Neil"),
		value.Bool(true),
		value.Null(),
	}
	dec, err := wire.DecodeValues(wire.EncodeValues(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if dec[i].Kind() != v.Kind() || (v.Kind() != value.KindNull && !value.Equal(dec[i], v)) {
			t.Errorf("param %d: %v round-tripped to %v", i, v, dec[i])
		}
	}
}
