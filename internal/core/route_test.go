package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mosaic/internal/exec"
	"mosaic/internal/mechanism"
	"mosaic/internal/sql"
	"mosaic/internal/swg"
	"mosaic/internal/value"
)

// routeWorld builds the world a route reads. "main" holds an auxiliary
// table, a sample, a global population with marginals, a view population
// with its own marginals (view-scope IPF) and one without (global-scope IPF
// through the view); the others hold one global population whose sample has
// a known non-uniform mechanism ("biased"), a UNIFORM design ("uniform"), no
// mechanism and no marginals ("bare"), or two samples unioned ("union").
func routeWorld(t *testing.T, world string, shards int) *Engine {
	t.Helper()
	e := NewEngine(Options{
		Seed:         1,
		OpenSamples:  2,
		Workers:      2,
		Shards:       shards,
		UnionSamples: world == "union",
		SWG: swg.Config{
			Hidden: []int{8}, Latent: 2, Epochs: 2,
			BatchSize: 32, Projections: 4, StepsPerEpoch: 2,
		},
	})
	rng := rand.New(rand.NewSource(11))
	grps := []string{"a", "a", "a", "b", "b", "c"}
	ingest := func(rel string, n int, row func(i int) []any) {
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = row(i)
		}
		if err := e.Ingest(rel, rows); err != nil {
			t.Fatal(err)
		}
	}
	gx := func(int) []any { return []any{grps[rng.Intn(len(grps))], int64(rng.Intn(6))} }
	switch world {
	case "main":
		exec1(t, e, `
			CREATE GLOBAL POPULATION World (grp TEXT, v INT, z FLOAT);
			CREATE POPULATION Agroup AS (SELECT grp, v, z FROM World WHERE grp = 'a');
			CREATE POPULATION Low AS (SELECT grp, v, z FROM World WHERE z < 5);
			CREATE SAMPLE S AS (SELECT * FROM World);
			CREATE TABLE Truth (grp TEXT, v INT, n INT);
			CREATE TABLE TruthA (v INT, n INT);
			CREATE TABLE Aux (c TEXT, x INT, y FLOAT);
			INSERT INTO Truth VALUES ('a', 1, 300), ('b', 2, 500), ('c', 3, 200);
			INSERT INTO TruthA VALUES (1, 40), (2, 30), (3, 20);
			CREATE METADATA World_M1 AS (SELECT grp, n FROM Truth);
			CREATE METADATA World_M2 AS (SELECT v, n FROM Truth);
			CREATE METADATA Agroup_M1 AS (SELECT v, n FROM TruthA);
		`)
		ingest("S", 300, func(int) []any {
			return []any{grps[rng.Intn(len(grps))], int64(1 + rng.Intn(3)), float64(rng.Intn(40)) / 4}
		})
		ingest("Aux", 200, func(i int) []any {
			if i%17 == 0 {
				return []any{nil, int64(rng.Intn(9)), nil}
			}
			return []any{grps[rng.Intn(len(grps))], int64(rng.Intn(9)), rng.Float64() * 10}
		})
	case "biased":
		exec1(t, e, `
			CREATE GLOBAL POPULATION K (g TEXT, x INT);
			CREATE SAMPLE KS AS (SELECT * FROM K);
		`)
		ingest("KS", 260, gx)
		pred, err := sql.ParseQuery("SELECT x FROM K WHERE x < 3")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetSampleMechanism("KS", mechanism.Biased{Pred: pred.Where, PTrue: 0.5, PFalse: 0.1}); err != nil {
			t.Fatal(err)
		}
	case "uniform":
		exec1(t, e, `
			CREATE GLOBAL POPULATION U (g TEXT, x INT);
			CREATE SAMPLE US AS (SELECT * FROM U USING MECHANISM UNIFORM PERCENT 10);
		`)
		ingest("US", 150, gx)
	case "bare":
		exec1(t, e, `
			CREATE GLOBAL POPULATION Bare (g TEXT, x INT);
			CREATE SAMPLE BS AS (SELECT * FROM Bare);
		`)
		ingest("BS", 40, gx)
	case "union":
		exec1(t, e, `
			CREATE GLOBAL POPULATION UP (g TEXT, x INT);
			CREATE SAMPLE UA AS (SELECT * FROM UP WHERE g = 'a');
			CREATE SAMPLE UB AS (SELECT * FROM UP WHERE g = 'b');
			CREATE TABLE UT (g TEXT, n INT);
			INSERT INTO UT VALUES ('a', 70), ('b', 30);
			CREATE METADATA UP_M1 AS (SELECT g, n FROM UT);
		`)
		ingest("UA", 150, func(int) []any { return []any{"a", int64(rng.Intn(6))} })
		ingest("UB", 120, func(int) []any { return []any{"b", int64(rng.Intn(6))} })
	default:
		t.Fatalf("unknown route world %q", world)
	}
	return e
}

// routeQuery is one statement of the conformance table. A non-empty refuse
// is a substring every entry point's refusal must contain; otherwise
// technique is a substring of EXPLAIN's technique row. A scan refusal is met
// by the scan, at a row's value: EXPLAIN still plans the query (technique
// applies), and only the shards holding such a row refuse, the first of
// them in shard order with Query's words.
type routeQuery struct {
	q         string
	technique string
	refuse    string
	scan      bool
}

var routeTable = []struct {
	route   string
	world   string
	queries []routeQuery
}{
	{"auxiliary table", "main", []routeQuery{
		{q: "SELECT c, COUNT(*), SUM(y), MIN(x) FROM Aux GROUP BY c", technique: "direct scan (closed world)"},
		{q: "SELECT c, COUNT(x > 5), MAX(c = 'a') FROM Aux GROUP BY c", technique: "direct scan (closed world)"},
		{q: "SELECT c, x FROM Aux WHERE x > 4 ORDER BY x, c LIMIT 6", technique: "direct scan (closed world)"},
		{q: "SELECT OPEN c FROM Aux", refuse: `"Aux" is an auxiliary table`},
		{q: "SELECT SEMI-OPEN COUNT(*) FROM Aux", refuse: `"Aux" is an auxiliary table`},
	}},
	{"sample", "main", []routeQuery{
		{q: "SELECT grp, COUNT(*), AVG(z) FROM S GROUP BY grp", technique: "direct scan over stored weights"},
		{q: "SELECT CLOSED SUM(WEIGHT), MAX(z) FROM S WHERE v = 2", technique: "direct scan over stored weights"},
		{q: "SELECT SEMI-OPEN COUNT(*) FROM S", refuse: `query the population "S" was sampled from`},
		{q: "SELECT OPEN grp FROM S", refuse: `query the population "S" was sampled from`},
	}},
	{"population CLOSED, global", "main", []routeQuery{
		{q: "SELECT CLOSED grp, COUNT(*), SUM(z) FROM World GROUP BY grp ORDER BY grp", technique: "sample as stored"},
		{q: "SELECT CLOSED grp FROM World GROUP BY grp", technique: "sample as stored"},
		{q: "SELECT CLOSED grp, v FROM World WHERE z < 1 ORDER BY v, grp", technique: "sample as stored"},
		{q: "SELECT CLOSED grp, COUNT(z > 5), MAX(grp = 'a') FROM World GROUP BY grp", technique: "sample as stored"},
		{q: "SELECT CLOSED COUNT(*), SUM(grp) FROM World", technique: "sample as stored", refuse: "SUM over non-numeric value", scan: true},
	}},
	{"population CLOSED, view", "main", []routeQuery{
		{q: "SELECT CLOSED v, COUNT(*), AVG(z) FROM Agroup GROUP BY v", technique: "sample as stored"},
	}},
	{"SEMI-OPEN, global-scope IPF", "main", []routeQuery{
		{q: "SELECT SEMI-OPEN grp, COUNT(*), AVG(z) FROM World GROUP BY grp", technique: "IPF reweighting"},
		{q: "SELECT COUNT(*), SUM(z) FROM Low", technique: "IPF reweighting"},
		{q: "SELECT SEMI-OPEN grp, COUNT(z > 5), MAX(grp = 'a') FROM World GROUP BY grp", technique: "IPF reweighting"},
		{q: "SELECT SEMI-OPEN MAX(v > 1), SUM(grp) FROM World", technique: "IPF reweighting", refuse: "SUM over non-numeric value", scan: true},
	}},
	{"SEMI-OPEN, view-scope IPF fit", "main", []routeQuery{
		{q: "SELECT SEMI-OPEN v, COUNT(*), MIN(z) AS lo FROM Agroup GROUP BY v HAVING lo > 0", technique: "IPF reweighting"},
		{q: "SELECT SEMI-OPEN v, z FROM Agroup WHERE z > 9", technique: "IPF reweighting"},
		{q: "SELECT SEMI-OPEN v, COUNT(z > 5), MIN(z = 1) FROM Agroup GROUP BY v", technique: "IPF reweighting"},
		{q: "SELECT SEMI-OPEN AVG(grp) FROM Agroup", technique: "IPF reweighting", refuse: "AVG over non-numeric value", scan: true},
	}},
	{"SEMI-OPEN, known non-uniform mechanism", "biased", []routeQuery{
		{q: "SELECT SEMI-OPEN g, COUNT(*), SUM(x) FROM K GROUP BY g ORDER BY g", technique: "Horvitz"},
		{q: "SELECT SEMI-OPEN g, COUNT(x > 2), MAX(g = 'a') FROM K GROUP BY g", technique: "Horvitz"},
	}},
	{"SEMI-OPEN, UNIFORM", "uniform", []routeQuery{
		{q: "SELECT SEMI-OPEN COUNT(*), AVG(x) FROM U WHERE x > 0", technique: "Horvitz"},
	}},
	{"UnionSamples", "union", []routeQuery{
		{q: "SELECT SEMI-OPEN g, COUNT(*) FROM UP GROUP BY g", technique: "IPF reweighting"},
		{q: "SELECT CLOSED COUNT(*), SUM(x) FROM UP", technique: "sample as stored"},
	}},
	{"SEMI-OPEN, no mechanism and no marginals", "bare", []routeQuery{
		{q: "SELECT SEMI-OPEN COUNT(*) FROM Bare", refuse: `SEMI-OPEN query on "Bare" needs a known mechanism or population marginals`},
		{q: "SELECT OPEN g, COUNT(*) FROM Bare GROUP BY g", refuse: `OPEN query on "Bare" needs population marginals`},
	}},
	{"OPEN", "main", []routeQuery{
		{q: "SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp", technique: "M-SWG generation"},
		{q: "SELECT OPEN grp, v FROM World WHERE v = 1", technique: "M-SWG generation"},
	}},
}

// TestRouteConformance runs every read route through every read entry point
// — Query, Prepare + QueryPrepared, PartialContext(i of S) for every i then
// exec.GatherPartials, and Explain — at S ∈ {1, 2, 4}: refusals carry the
// same text everywhere, gathered partials equal the Shards: S answer bit for
// bit, only OPEN and non-aggregate shapes are unhandled, fleet partials
// never count as local shard scans, and EXPLAIN shows a sharding row exactly
// when Query at S > 1 scanned shards.
func TestRouteConformance(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4} {
		engines := map[string]*Engine{}
		for _, rc := range routeTable {
			e := engines[rc.world]
			if e == nil {
				e = routeWorld(t, rc.world, shards)
				engines[rc.world] = e
			}
			for _, rq := range rc.queries {
				name := fmt.Sprintf("S=%d/%s/%s", shards, rc.route, rq.q)
				sel, err := sql.ParseQuery(rq.q)
				if err != nil {
					t.Fatalf("%s: parse: %v", name, err)
				}
				before := e.ShardScans()
				want, qerr := e.Query(sel)
				sharded := fmt.Sprint(e.ShardScans()) != fmt.Sprint(before)
				switch {
				case rq.refuse != "" && (qerr == nil || !strings.Contains(qerr.Error(), rq.refuse)):
					t.Errorf("%s: Query = %v, want refusal %q", name, qerr, rq.refuse)
					continue
				case rq.refuse == "" && qerr != nil:
					t.Errorf("%s: Query: %v", name, qerr)
					continue
				}
				sameAnswer := func(entry string, got *exec.Result, err error) {
					t.Helper()
					if qerr != nil {
						if err == nil || err.Error() != qerr.Error() {
							t.Errorf("%s: %s refused with %v, Query with %v", name, entry, err, qerr)
						}
						return
					}
					if err != nil {
						t.Errorf("%s: %s: %v", name, entry, err)
					} else if d := bitDiff(want, got); d != "" {
						t.Errorf("%s: %s differs from Query: %s", name, entry, d)
					}
				}

				got, err := e.QueryPrepared(ctx, e.Prepare(sel), sel)
				sameAnswer("QueryPrepared", got, err)

				scans := e.ShardScans()
				partials := make([]*exec.ShardPartial, shards)
				wantHandled := qerr != nil || (sel.Visibility != sql.VisibilityOpen && sel.IsAggregate())
				var firstErr error
				for i := 0; i < shards; i++ {
					p, gen, handled, err := e.PartialContext(ctx, sel, i, shards)
					if gen != e.Generation() {
						t.Errorf("%s: partial %d reported generation %d, engine is at %d", name, i, gen, e.Generation())
					}
					if handled != wantHandled {
						t.Errorf("%s: partial %d handled=%v, want %v", name, i, handled, wantHandled)
					}
					if rq.scan {
						// Only the shards whose slice holds the refused
						// value refuse; the first of them answers.
						if firstErr == nil {
							firstErr = err
						}
						partials = nil
						continue
					}
					if qerr != nil || !handled {
						sameAnswer(fmt.Sprintf("PartialContext(%d of %d)", i, shards), want, err)
						partials = nil
						continue
					}
					if err != nil {
						t.Errorf("%s: partial %d: %v", name, i, err)
						partials = nil
						break
					}
					partials[i] = p
				}
				if rq.scan {
					sameAnswer("PartialContext, first refusal in shard order", want, firstErr)
				}
				if partials != nil {
					got, err := exec.GatherPartials(ctx, sel, partials)
					sameAnswer("partial + gather", got, err)
				}
				if after := e.ShardScans(); fmt.Sprint(after) != fmt.Sprint(scans) {
					t.Errorf("%s: fleet partials moved the local shard counters %v → %v", name, scans, after)
				}

				plan, err := e.Explain(sel)
				if err != nil {
					if qerr == nil || err.Error() != qerr.Error() {
						t.Errorf("%s: Explain refused with %v, Query with %v", name, err, qerr)
					}
					continue
				}
				rows := map[string]string{}
				for _, r := range plan.Rows {
					rows[r[0].AsText()] = r[1].AsText()
				}
				tech := rows["technique"]
				if qerr != nil && !rq.scan {
					if w := "UNANSWERABLE: " + strings.TrimPrefix(qerr.Error(), "core: "); tech != w {
						t.Errorf("%s: Explain technique %q, want %q", name, tech, w)
					}
					continue
				}
				if !strings.Contains(tech, rq.technique) {
					t.Errorf("%s: Explain technique %q, want %q", name, tech, rq.technique)
				}
				sharding, has := rows["sharding"]
				switch {
				case shards == 1:
					if has {
						t.Errorf("%s: sharding row %q at Shards 1", name, sharding)
					}
				case sel.Visibility == sql.VisibilityOpen:
					if !strings.HasPrefix(sharding, "disabled for OPEN") {
						t.Errorf("%s: OPEN sharding row %q", name, sharding)
					}
				case qerr != nil:
					// A scan refused on one shard may have finished others.
				case wantHandled != has || sharded != has:
					t.Errorf("%s: sharding row %q present=%v, but the shape is partial-executable=%v and Query scanned shards=%v", name, sharding, has, wantHandled, sharded)
				}
			}
		}
	}
}

// TestExplainRefusesWhatQueryRefuses: visibility the relation kind cannot
// have is refused by EXPLAIN with Query's own error, not explained as a scan.
func TestExplainRefusesWhatQueryRefuses(t *testing.T) {
	e := smallWorld(t)
	for _, q := range []string{"SELECT OPEN grp FROM Truth", "SELECT SEMI-OPEN COUNT(*) FROM S"} {
		sel, err := sql.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		_, qerr := e.Query(sel)
		_, xerr := e.Explain(sel)
		if qerr == nil || xerr == nil || xerr.Error() != qerr.Error() {
			t.Errorf("%q: EXPLAIN error %v, Query error %v", q, xerr, qerr)
		}
	}
}

// bitDiff describes the first difference between two results, comparing
// float cells by their bits; "" when they are identical.
func bitDiff(a, b *exec.Result) string {
	if fmt.Sprint(a.Columns) != fmt.Sprint(b.Columns) {
		return fmt.Sprintf("columns %v vs %v", a.Columns, b.Columns)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d rows vs %d\n%s\n%s", len(a.Rows), len(b.Rows), a, b)
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			x, y := a.Rows[i][j], b.Rows[i][j]
			same := x.Kind() == y.Kind() && value.Equal(x, y)
			if x.Kind() == value.KindFloat && y.Kind() == value.KindFloat {
				same = math.Float64bits(x.AsFloat()) == math.Float64bits(y.AsFloat())
			}
			if !same {
				return fmt.Sprintf("row %d col %d: %v vs %v", i, j, x, y)
			}
		}
	}
	return ""
}

// TestUnboundParamsOneRefusal: every read entry point refuses a statement
// with unbound placeholders in the same words.
func TestUnboundParamsOneRefusal(t *testing.T) {
	e := smallWorld(t)
	sel, err := sql.ParseQuery("SELECT CLOSED COUNT(*) FROM World WHERE v > ?")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, qerr := e.Query(sel)
	_, perr := e.QueryPrepared(ctx, e.Prepare(sel), sel)
	_, _, handled, ferr := e.PartialContext(ctx, sel, 0, 2)
	const want = "core: statement has 1 unbound parameter(s); bind them with a prepared statement"
	for entry, err := range map[string]error{"Query": qerr, "QueryPrepared": perr, "PartialContext": ferr} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %q", entry, err, want)
		}
	}
	if !handled {
		t.Error("PartialContext: a refusal must be handled (it is every shard's answer)")
	}
}
