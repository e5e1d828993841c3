package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mosaic/internal/marginal"
	"mosaic/internal/mechanism"
	"mosaic/internal/sql"
	"mosaic/internal/swg"
	"mosaic/internal/value"
)

// The contract these tests pin: a trained model, an IPF fit, an inverse-
// probability vector or a unioned sample answers exactly while what it was
// computed from is unchanged, a write that changes an input makes the next
// read recompute, and either way the answer is the one a cold engine fed the
// same state gives.

func derivedOpts() Options {
	return Options{
		Seed:        3,
		OpenSamples: 3,
		SWG: swg.Config{
			Hidden: []int{16, 16}, Latent: 2, Epochs: 8,
			BatchSize: 128, Projections: 12, StepsPerEpoch: 4,
		},
	}
}

// derivedWorld: World's queries over grp and v are answered from SA (the
// largest covering sample), population B's queries over z from SZ (the only
// sample storing z), so the two OPEN models share nothing but the engine.
// Truth lists its cells in value order, the order a dump re-declares them in,
// so an engine restored from DumpScript is a cold engine with equal inputs.
const derivedWorld = `
	CREATE GLOBAL POPULATION World (grp TEXT, v INT, z INT);
	CREATE TABLE Truth (grp TEXT, v INT, z INT, n INT);
	INSERT INTO Truth VALUES ('a', 1, 5, 40), ('b', 2, 6, 60);
	CREATE METADATA World_M1 AS (SELECT grp, n FROM Truth);
	CREATE METADATA World_M2 AS (SELECT v, n FROM Truth);
	CREATE SAMPLE SA (grp TEXT, v INT) AS (SELECT grp, v FROM World);
	INSERT INTO SA VALUES ('a', 1), ('a', 1), ('a', 1), ('a', 1), ('a', 1), ('a', 1), ('a', 1), ('a', 1),
	                      ('b', 2), ('b', 2), ('b', 2), ('b', 2);
	CREATE SAMPLE SZ AS (SELECT * FROM World);
	INSERT INTO SZ VALUES ('a', 1, 5), ('a', 1, 5), ('a', 1, 5), ('a', 1, 5), ('a', 1, 5),
	                      ('b', 2, 6), ('b', 2, 6), ('b', 2, 6);
	CREATE POPULATION B AS (SELECT grp, v, z FROM World WHERE v >= 1);
	CREATE METADATA B_M1 FOR B AS (SELECT z, n FROM Truth);
`

const (
	openA = "SELECT OPEN grp, COUNT(*), AVG(v) FROM World GROUP BY grp ORDER BY grp"
	openB = "SELECT OPEN z, COUNT(*) FROM B GROUP BY z ORDER BY z"
)

var derivedQueries = []string{
	"SELECT CLOSED grp, COUNT(*) FROM World GROUP BY grp ORDER BY grp",
	"SELECT SEMI-OPEN grp, COUNT(*), SUM(v) FROM World GROUP BY grp ORDER BY grp",
	openA,
	"SELECT SEMI-OPEN z, COUNT(*) FROM B GROUP BY z ORDER BY z",
	openB,
}

func newDerivedWorld(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(derivedOpts())
	exec1(t, e, derivedWorld)
	return e
}

// answers renders every derivedQueries answer, bit for bit.
func answers(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	for _, q := range derivedQueries {
		b.WriteString(q + "\n" + renderRows(query(t, e, q)))
	}
	return b.String()
}

// coldAnswers dumps e and answers from a fresh engine restored from the dump.
func coldAnswers(t *testing.T, e *Engine) string {
	t.Helper()
	script, err := e.DumpScript()
	if err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(e.Options())
	exec1(t, cold, script)
	return answers(t, cold)
}

func modelRow(t *testing.T, e *Engine, q string) string {
	t.Helper()
	for _, line := range strings.Split(explainText(t, e, q), "\n") {
		if rest, ok := strings.CutPrefix(line, "model="); ok {
			return rest
		}
	}
	t.Fatalf("EXPLAIN %s has no model row", q)
	return ""
}

// TestHalfFailedInsertRefits: a write that fails on its third row keeps the
// first two (each row is atomic, a statement is not). The fit and the model
// computed from the shorter sample must not outlive that: every visibility
// answers as a cold engine holding the same rows does. Before inputs were
// versioned the failing paths returned ahead of the invalidation, SEMI-OPEN
// answered "weight override has 12 entries for 14 rows" and OPEN served the
// model of the old sample.
func TestHalfFailedInsertRefits(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "rows.csv")
	if err := os.WriteFile(csv, []byte("a,1\nb,2\nx,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	writes := map[string]func(e *Engine) error{
		"INSERT": func(e *Engine) error {
			_, err := e.ExecScript(`INSERT INTO SA VALUES ('a', 1), ('b', 2), ('x', 'y')`)
			return err
		},
		"Ingest": func(e *Engine) error {
			return e.Ingest("SA", [][]any{{"a", 1}, {"b", 2}, {"x", "y"}})
		},
		"COPY": func(e *Engine) error {
			_, err := e.ExecScript(`COPY SA FROM '` + csv + `'`)
			return err
		},
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			e := newDerivedWorld(t)
			answers(t, e) // fit and train on the 12-row sample
			if err := write(e); err == nil {
				t.Fatal("the write should fail on its third row")
			}
			if got := scalar(t, e, "SELECT COUNT(*) FROM SA"); got != 14 {
				t.Fatalf("SA holds %g rows after the half-failed write, want 14", got)
			}
			if got := modelRow(t, e, openA); !strings.HasPrefix(got, "stale: sample SA grew 12 → 14 rows") {
				t.Errorf("model row = %q", got)
			}
			if got, want := answers(t, e), coldAnswers(t, e); got != want {
				t.Errorf("answers after the half-failed write differ from a cold engine's:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestRedeclaredMarginalKeepsModel: DROP METADATA + CREATE METADATA with the
// same cells leaves the list, and so every model and fit, as it was.
func TestRedeclaredMarginalKeepsModel(t *testing.T) {
	e := newDerivedWorld(t)
	answers(t, e)
	before := e.ModelCacheStats()
	cached := modelRow(t, e, openA)
	if !strings.HasPrefix(cached, "cached: ") {
		t.Fatalf("model row after the first read = %q", cached)
	}
	exec1(t, e, `DROP METADATA World_M2; CREATE METADATA World_M2 AS (SELECT v, n FROM Truth)`)
	if got := modelRow(t, e, openA); got != cached {
		t.Errorf("model row after an equal re-declaration = %q, want %q", got, cached)
	}
	got := answers(t, e)
	after := e.ModelCacheStats()
	if after.Trained != before.Trained || after.Fitted != before.Fitted {
		t.Errorf("an equal re-declaration recomputed: %+v → %+v", before, after)
	}
	// World's fit and model each compared content once, then adopted the new
	// object: the second round of reads is pointer-equal.
	if n := after.Revalidated - before.Revalidated; n != 2 {
		t.Errorf("revalidated %d lookups, want 2", n)
	}
	answers(t, e)
	if again := e.ModelCacheStats(); again.Revalidated != after.Revalidated {
		t.Errorf("revalidated again on an unchanged list: %+v → %+v", after, again)
	}
	if want := coldAnswers(t, e); got != want {
		t.Errorf("answers from kept models differ from a cold engine's:\n%s\nvs\n%s", got, want)
	}
}

// TestChangedMarginalListRetrains: the marginal list is ordered, and counts
// compare bit for bit; either difference is a different model.
func TestChangedMarginalListRetrains(t *testing.T) {
	t.Run("order", func(t *testing.T) {
		e := newDerivedWorld(t)
		answers(t, e)
		before := e.ModelCacheStats()
		exec1(t, e, `DROP METADATA World_M1; CREATE METADATA World_M1 AS (SELECT grp, n FROM Truth)`)
		want := "stale: marginal list changed [World_M1, World_M2] → [World_M2, World_M1] (next OPEN read trains 8 epochs × 4 steps)"
		if got := modelRow(t, e, openA); got != want {
			t.Errorf("model row = %q, want %q", got, want)
		}
		got := answers(t, e)
		after := e.ModelCacheStats()
		if after.Trained != before.Trained+1 || after.Fitted != before.Fitted+1 {
			t.Errorf("a reordered list should refit and retrain World once: %+v → %+v", before, after)
		}
		// The dump re-declares in registration order, so the cold engine
		// trains on [M2, M1] too.
		if want := coldAnswers(t, e); got != want {
			t.Errorf("answers differ from a cold engine with the same order:\n%s\nvs\n%s", got, want)
		}
	})
	t.Run("one ulp", func(t *testing.T) {
		// A count one ulp off is not expressible in a dump (%g), so the cold
		// twin is built by the same calls instead.
		build := func(count float64, warm bool) *Engine {
			e := newDerivedWorld(t)
			if warm {
				answers(t, e)
			}
			exec1(t, e, `DROP METADATA World_M2`)
			m, err := marginal.New("World_M2", []string{"v"})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct{ v, n float64 }{{1, 40}, {2, count}} {
				if err := m.Add([]value.Value{value.Int(int64(c.v))}, c.n); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.AddMarginal("World", m); err != nil {
				t.Fatal(err)
			}
			return e
		}
		same := build(60, true)
		if got := modelRow(t, same, openA); !strings.HasPrefix(got, "cached: ") {
			t.Errorf("equal cells through AddMarginal: model row = %q", got)
		}
		off := math.Nextafter(60, 61)
		e := build(off, true)
		if got := modelRow(t, e, openA); !strings.HasPrefix(got, "stale: marginal World_M2 changed") {
			t.Errorf("model row = %q", got)
		}
		before := e.ModelCacheStats()
		got := answers(t, e)
		if after := e.ModelCacheStats(); after.Trained != before.Trained+1 {
			t.Errorf("a count one ulp off should retrain: %+v → %+v", before, after)
		}
		if want := answers(t, build(off, false)); got != want {
			t.Errorf("answers differ from a cold engine with the same count:\n%s\nvs\n%s", got, want)
		}
	})
}

// TestWriteToOneSampleKeepsTheOthersModels: every way of changing sample SA
// makes the state derived from SA stale and leaves population B's model,
// trained on SZ, in place.
func TestWriteToOneSampleKeepsTheOthersModels(t *testing.T) {
	writes := []struct {
		name, stale string
		do          func(e *Engine) error
	}{
		{"INSERT", "stale: sample SA grew 12 → 13 rows", func(e *Engine) error {
			_, err := e.ExecScript(`INSERT INTO SA VALUES ('b', 2)`)
			return err
		}},
		{"UPDATE SAMPLE", "stale: sample SA changed in place", func(e *Engine) error {
			_, err := e.ExecScript(`UPDATE SAMPLE SA SET WEIGHT = 2 WHERE grp = 'b'`)
			return err
		}},
		{"SetSampleMechanism", "stale: sample SA mechanism changed", func(e *Engine) error {
			return e.SetSampleMechanism("SA", mechanism.Stratified{Attr: "grp", Percent: 10})
		}},
	}
	for _, w := range writes {
		t.Run(w.name, func(t *testing.T) {
			e := newDerivedWorld(t)
			answers(t, e)
			cachedB := modelRow(t, e, openB)
			before := e.ModelCacheStats()
			if err := w.do(e); err != nil {
				t.Fatal(err)
			}
			if got := modelRow(t, e, openA); !strings.HasPrefix(got, w.stale) {
				t.Errorf("World's model row = %q, want prefix %q", got, w.stale)
			}
			if got := modelRow(t, e, openB); got != cachedB {
				t.Errorf("B's model row = %q, want %q", got, cachedB)
			}
			got := answers(t, e)
			if after := e.ModelCacheStats(); after.Trained != before.Trained+1 {
				t.Errorf("trained %d models after the write, want 1 (World's)", after.Trained-before.Trained)
			}
			if want := coldAnswers(t, e); got != want {
				t.Errorf("answers differ from a cold engine's:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestFailedDropEvictsNothing: a DROP that names nothing changes nothing.
func TestFailedDropEvictsNothing(t *testing.T) {
	e := newDerivedWorld(t)
	want := answers(t, e)
	cached := modelRow(t, e, openA)
	before := e.ModelCacheStats()
	for _, stmt := range []string{"DROP METADATA nosuch", "DROP SAMPLE nosuch", "DROP POPULATION nosuch", "DROP TABLE nosuch"} {
		if _, err := e.ExecScript(stmt); err == nil {
			t.Fatalf("%s should fail", stmt)
		}
	}
	if got := modelRow(t, e, openA); got != cached {
		t.Errorf("model row after failed DROPs = %q, want %q", got, cached)
	}
	if got := answers(t, e); got != want {
		t.Errorf("answers changed across failed DROPs")
	}
	if after := e.ModelCacheStats(); after.Trained != before.Trained || after.Fitted != before.Fitted {
		t.Errorf("failed DROPs recomputed: %+v → %+v", before, after)
	}
}

// TestDropReleasesSlots: once the catalog no longer resolves a sample or a
// population, nothing computed for it is retained.
func TestDropReleasesSlots(t *testing.T) {
	slots := func(e *Engine) string {
		e.cacheMu.Lock()
		defer e.cacheMu.Unlock()
		var keys []string
		for k := range e.models {
			keys = append(keys, k)
		}
		for k := range e.ipfFits {
			keys = append(keys, k)
		}
		return strings.Join(keys, " ")
	}
	e := newDerivedWorld(t)
	answers(t, e)
	if got := slots(e); !strings.Contains(got, "sz|b") || !strings.Contains(got, "sa|world") {
		t.Fatalf("slots after the reads: %s", got)
	}
	exec1(t, e, `DROP POPULATION B`)
	if got := slots(e); strings.Contains(got, "|b") || !strings.Contains(got, "sa|world") {
		t.Errorf("slots after DROP POPULATION B: %s", got)
	}
	exec1(t, e, `DROP SAMPLE SA`)
	if got := slots(e); got != "" {
		t.Errorf("slots after DROP SAMPLE SA: %s", got)
	}
	// World's reads move to SZ and train there.
	if got := modelRow(t, e, openA); !strings.HasPrefix(got, "untrained") {
		t.Errorf("model row after the drop = %q", got)
	}
	query(t, e, openA)
	if got := slots(e); got != "sz|world" {
		t.Errorf("slots after the next OPEN read: %s", got)
	}
}

// TestUnionSampleIsDerivedOnce: with UnionSamples every plan unions the
// covering samples. The union is the same object while its members stand, so
// ad-hoc OPEN and SEMI-OPEN reads train and fit once; a write to one member
// rebuilds it and what was derived from it.
func TestUnionSampleIsDerivedOnce(t *testing.T) {
	opts := derivedOpts()
	opts.UnionSamples = true
	e := NewEngine(opts)
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (g TEXT);
		CREATE SAMPLE SB AS (SELECT * FROM P WHERE g = 'b');
		CREATE SAMPLE SA AS (SELECT * FROM P WHERE g = 'a');
		CREATE TABLE T (g TEXT, n INT);
		INSERT INTO T VALUES ('a', 30), ('b', 70);
		CREATE METADATA P_M1 AS (SELECT g, n FROM T);
		INSERT INTO SA VALUES ('a'), ('a'), ('a'), ('a');
		INSERT INTO SB VALUES ('b'), ('b');
	`)
	const open = "SELECT OPEN g, COUNT(*) FROM P GROUP BY g ORDER BY g"
	const semi = "SELECT SEMI-OPEN g, COUNT(*) FROM P GROUP BY g ORDER BY g"
	first := renderRows(query(t, e, open)) + renderRows(query(t, e, semi))
	for i := 0; i < 4; i++ {
		if got := renderRows(query(t, e, open)) + renderRows(query(t, e, semi)); got != first {
			t.Fatalf("read %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	if st := e.ModelCacheStats(); st.Trained != 1 || st.Fitted != 1 {
		t.Errorf("five rounds of ad-hoc reads: %+v, want one training and one fit", st)
	}
	if got := explainText(t, e, open); !strings.Contains(got, "sample=union(SA+SB) (6 tuples)") || !strings.Contains(got, "model=cached: ") {
		t.Errorf("EXPLAIN over the union:\n%s", got)
	}
	exec1(t, e, `INSERT INTO SB VALUES ('b')`)
	if got := modelRow(t, e, open); !strings.HasPrefix(got, "stale: sample union(SA+SB) was re-created") {
		t.Errorf("model row after a write to a member = %q", got)
	}
	query(t, e, open)
	query(t, e, semi)
	if st := e.ModelCacheStats(); st.Trained != 2 || st.Fitted != 2 {
		t.Errorf("after a write to one member: %+v, want a second training and fit", st)
	}
	if got := scalar(t, e, "SELECT CLOSED COUNT(*) FROM P"); got != 7 {
		t.Errorf("CLOSED COUNT(*) over the rebuilt union = %g, want 7", got)
	}
}

// TestInverseWeightsAreCached: the 1/Pr vector of a mechanism that reads the
// tuple is computed once per sample state, not once per SEMI-OPEN query. (A
// uniform design's constant vector is refilled per query instead of kept.)
func TestInverseWeightsAreCached(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `
		CREATE GLOBAL POPULATION P (x INT);
		CREATE SAMPLE S AS (SELECT * FROM P);
		INSERT INTO S VALUES (1), (2), (3);
	`)
	biased := func(pTrue float64) mechanism.Mechanism {
		pred, err := sql.ParseQuery("SELECT x FROM P WHERE x < 3")
		if err != nil {
			t.Fatal(err)
		}
		return mechanism.Biased{Pred: pred.Where, PTrue: pTrue, PFalse: 0.1}
	}
	if err := e.SetSampleMechanism("S", biased(0.5)); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT SEMI-OPEN COUNT(*) FROM P"
	for i := 0; i < 3; i++ {
		if got := scalar(t, e, q); got != 2+2+10 {
			t.Fatalf("read %d: COUNT(*) = %g, want 14", i, got)
		}
	}
	if st := e.ModelCacheStats(); st.Fitted != 1 || st.Hits != 2 {
		t.Errorf("three reads: %+v, want one computation and two hits", st)
	}
	exec1(t, e, `INSERT INTO S VALUES (4)`)
	if got := scalar(t, e, q); got != 24 {
		t.Errorf("after an INSERT: COUNT(*) = %g, want 24", got)
	}
	if err := e.SetSampleMechanism("S", biased(0.25)); err != nil {
		t.Fatal(err)
	}
	if got := scalar(t, e, q); got != 28 {
		t.Errorf("after a mechanism change: COUNT(*) = %g, want 28", got)
	}
	if st := e.ModelCacheStats(); st.Fitted != 3 {
		t.Errorf("two changes to the sample: %+v, want three computations", st)
	}
	// A uniform design answers from a vector filled per query: no slot.
	if err := e.SetSampleMechanism("S", mechanism.Uniform{Percent: 50}); err != nil {
		t.Fatal(err)
	}
	before := e.ModelCacheStats()
	if got := scalar(t, e, q); got != 8 {
		t.Errorf("uniform 50 %%: COUNT(*) = %g, want 8", got)
	}
	if after := e.ModelCacheStats(); after != before {
		t.Errorf("a uniform read touched the cache: %+v → %+v", before, after)
	}
}

// TestWritersRacingReadersSeeWholeFits: while writers grow and reweight the
// samples (half-failing writes included), no SEMI-OPEN read is ever handed a
// weight vector of another length than its sample and no read fails. Run
// under -race.
func TestWritersRacingReadersSeeWholeFits(t *testing.T) {
	opts := derivedOpts()
	opts.SWG.Epochs, opts.SWG.StepsPerEpoch = 2, 2
	e := NewEngine(opts)
	exec1(t, e, derivedWorld+`
		CREATE SAMPLE U (grp TEXT, v INT, z INT) AS (SELECT * FROM World USING MECHANISM UNIFORM PERCENT 10);
	`)
	reads := []string{
		"SELECT SEMI-OPEN grp, COUNT(*) FROM World GROUP BY grp", // IPF over SA
		"SELECT SEMI-OPEN z, COUNT(*) FROM B GROUP BY z",         // view-scope IPF over SZ, or 1/Pr over U
		openA,
	}
	parsed := make([]*sql.Select, len(reads))
	for i, q := range reads {
		sel, err := sql.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		parsed[i] = sel
	}
	const rounds = 12
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var err error
				switch (i + w) % 4 {
				case 0:
					_, err = e.ExecScript(`INSERT INTO SA VALUES ('a', 1)`)
				case 1:
					if _, err = e.ExecScript(`INSERT INTO SZ VALUES ('b', 2, 6), ('x', 'y', 0)`); err == nil {
						err = fmt.Errorf("half-failing INSERT succeeded")
					} else {
						err = nil
					}
				case 2:
					err = e.Ingest("U", [][]any{{"a", 1, 5}, {"b", 2, 6}})
				case 3:
					_, err = e.ExecScript(`UPDATE SAMPLE SA SET WEIGHT = 1 + v`)
				}
				if err != nil {
					t.Errorf("writer %d round %d: %v", w, i, err)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := e.Query(parsed[(i+r)%len(parsed)]); err != nil {
					t.Errorf("reader %d: %s: %v", r, reads[(i+r)%len(reads)], err)
				}
			}
		}(r)
	}
	wg.Wait()
	if got, want := answers(t, e), coldAnswers(t, e); got != want {
		t.Errorf("quiesced answers differ from a cold engine's:\n%s\nvs\n%s", got, want)
	}
}
