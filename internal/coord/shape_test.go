package coord_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/coord"
	"mosaic/internal/wire"
)

// TestFleetScattersGroupByOnly: a GROUP BY with no aggregate items has the
// aggregate shape, so the coordinator scatters it — as in-process Shards: N
// does — and answers byte-identically to the Shards: 2 reference.
func TestFleetScattersGroupByOnly(t *testing.T) {
	script, opts := worldScript(t)
	cc, _, _, coordURL := startFleet(t, 2, script, opts)
	refOpts := *opts
	refOpts.Shards = 2
	ref := mosaic.Open(&refOpts)
	if err := ref.Restore(script); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT CLOSED carrier FROM Flights GROUP BY carrier"
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cc.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Errorf("%s: fleet answer diverged from Options.Shards:2\nfleet: %q\nref:   %q", q, render(got), render(want))
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
	if st.Scattered != 1 || st.PassThrough != 0 {
		t.Errorf("scattered = %d, pass_through = %d; want the GROUP-BY-only query scattered", st.Scattered, st.PassThrough)
	}
}

// TestFleetScattersPerRowAggregateInputs: aggregate inputs the kernels do
// not compile (a comparison, an equality over TEXT) run per row inside the
// shards' pipeline, so the coordinator scatters them like any other
// aggregate — no shard declines, nothing passes through — and answers
// byte-identically to the Shards: 2 reference.
func TestFleetScattersPerRowAggregateInputs(t *testing.T) {
	script, opts := worldScript(t)
	cc, _, _, coordURL := startFleet(t, 2, script, opts)
	refOpts := *opts
	refOpts.Shards = 2
	ref := mosaic.Open(&refOpts)
	if err := ref.Restore(script); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT CLOSED carrier, COUNT(distance > 1000) FROM Flights GROUP BY carrier",
		"SELECT SEMI-OPEN carrier, COUNT(elapsed_time > 200), MAX(carrier = 'AA') FROM Flights GROUP BY carrier ORDER BY carrier",
	}
	for _, q := range queries {
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(want) {
			t.Errorf("%s: fleet answer diverged from Options.Shards:2\nfleet: %q\nref:   %q", q, render(got), render(want))
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
	if st.Scattered != int64(len(queries)) || st.PassThrough != 0 {
		t.Errorf("scattered = %d, pass_through = %d; want all %d queries scattered", st.Scattered, st.PassThrough, len(queries))
	}
}

// TestFleetRefusesMalformedPartial: a shard's partial is input from outside
// the coordinator's process. One whose group carries a single key value for
// a two-column GROUP BY is answered 422, where the gather used to panic and
// take the coordinator down.
func TestFleetRefusesMalformedPartial(t *testing.T) {
	script, opts := worldScript(t)
	sh := startShard(t, script, opts)
	shard := sh.ts.Config.Handler
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		shard.ServeHTTP(rec, r)
		var p wire.PartialResponse
		if r.URL.Path != "/v1/partial" || rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &p) != nil {
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		for g := range p.Groups {
			p.Groups[g] = p.Groups[g][:min(len(p.Groups[g]), 1)]
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&p)
	}))
	t.Cleanup(bad.Close)
	c, err := coord.New(coord.Config{Shards: []string{bad.URL}, RequestTimeout: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(c.Handler())
	t.Cleanup(cts.Close)
	_, err = client.New(cts.URL).Query("SELECT CLOSED carrier, taxi_out, COUNT(*) FROM Flights GROUP BY carrier, taxi_out")
	var re *client.RemoteError
	if !errors.As(err, &re) || re.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(re.Message, "carries 1 key values, query groups by 2 columns") {
		t.Fatalf("malformed partial: %v, want a 422 naming the group's key values", err)
	}
	if _, err := client.New(cts.URL).Query("SELECT CLOSED COUNT(*) FROM Flights"); err != nil {
		t.Errorf("the coordinator stopped answering after the refusal: %v", err)
	}
}
