package coord_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"mosaic"
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
