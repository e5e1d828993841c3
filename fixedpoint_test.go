package mosaic_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mosaic"
	"mosaic/internal/mechanism"
	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// customMech is a mechanism of a type the SQL dialect cannot spell.
type customMech struct{}

func (customMech) Name() string { return "CUSTOM" }
func (customMech) InclusionProb([]value.Value, *schema.Schema) (float64, error) {
	return 1, nil
}

// biasedOn is the mechanism BIASED ON pred WITH PROBABILITIES (TRUE
// pTrue, FALSE pFalse).
func biasedOn(t *testing.T, pred string, pTrue, pFalse float64) mechanism.Biased {
	t.Helper()
	ex, err := sql.ParseExpr(pred)
	if err != nil {
		t.Fatal(err)
	}
	return mechanism.Biased{Pred: ex, PTrue: pTrue, PFalse: pFalse}
}

// buildFixedPointWorld writes a world through every kind of write: every
// mechanism kind, each set in SQL and through SetMechanism; a marginal
// declared in SQL and one built in Go; rows by INSERT, Ingest, IngestTable
// and weighted and unweighted COPY; and one failed write of each Go-API
// kind. Each sample projects an attribute no other sample has, so each of
// fixedPointQueries reads the sample its comment names.
func buildFixedPointWorld(t *testing.T) *mosaic.DB {
	t.Helper()
	db := mosaic.Open(snapshotOpts())
	if err := db.Exec(`
		CREATE GLOBAL POPULATION People (name TEXT, region TEXT, age INT, tier INT, score FLOAT, member BOOL, city TEXT);
		CREATE TABLE Census (region TEXT, n INT);
		INSERT INTO Census VALUES ('north', 60), ('south', 40);
		CREATE METADATA People_M1 AS (SELECT region, n FROM Census);
		CREATE SAMPLE S AS (SELECT name, region FROM People);
		CREATE SAMPLE SU AS (SELECT region, age FROM People USING MECHANISM UNIFORM PERCENT 12.5);
		CREATE SAMPLE SS AS (SELECT region, tier FROM People USING MECHANISM STRATIFIED ON region PERCENT 20);
		CREATE SAMPLE SQ AS (SELECT region, score FROM People
			USING MECHANISM STRATIFIED ON score PERCENT 30 WITH PROBABILITIES (0.5 0.25, 1.5 0.5, 2.25 0.125));
		CREATE SAMPLE SB AS (SELECT region, member FROM People
			USING MECHANISM BIASED ON member = TRUE WITH PROBABILITIES (TRUE 0.3, FALSE 0.05));
		CREATE SAMPLE SM AS (SELECT region, city FROM People);
		INSERT INTO SU VALUES ('north', 20), ('south', 30), ('south', 41);
		INSERT INTO SS VALUES ('north', 1), ('north', 2), ('south', 3), ('south', 3);
		INSERT INTO SB VALUES ('north', TRUE), ('south', FALSE), ('south', TRUE), ('north', NULL);
		INSERT INTO SM VALUES ('north', 'a'), ('south', 'b'), ('south', 'b');
	`); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("COPY SQ (region, score, WEIGHT) FROM STDIN;\n" +
		"'north'\t0.5\t2\n'south'\t1.5\t0.75\n'south'\t2.25\t1\n'north'\t1.5\t1\n\\.\n" +
		"COPY S (name, region) FROM STDIN;\n'Pia'\t'south'\n'Quinn'\t'north'\n\\.\n"); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest("S", [][]any{
		{"Anna", "north"}, {"O'Brien", "north"}, {"Bob", "south"}, {"Cleo", "north"},
		{"Miguel", "north"}, {"Ines", "south"}, {"Lee", "north"}, {"Dana", "south"},
	}); err != nil {
		t.Fatal(err)
	}
	src := table.New("src", schema.MustNew(
		schema.Attribute{Name: "name", Kind: value.KindText},
		schema.Attribute{Name: "region", Kind: value.KindText},
	))
	for _, r := range [][]value.Value{{value.Text("Eve"), value.Text("south")}, {value.Text("Finn"), value.Text("north")}} {
		if err := src.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Engine().IngestTable("S", src); err != nil {
		t.Fatal(err)
	}
	m2, err := mosaic.NewMarginal("People_M2", []string{"city"}, [][]any{{"a", 45}, {"b", 55}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddMarginal("People", m2); err != nil {
		t.Fatal(err)
	}
	biased := biasedOn(t, "region = 'north'", 0.5, 0.1)
	for _, set := range []struct {
		sample string
		m      mosaic.Mechanism
	}{
		{"S", biased},
		{"SU", mechanism.Uniform{Percent: 7.5}},
		{"SM", mechanism.Stratified{Attr: "city", Percent: 25, Probs: map[string]float64{
			value.Text("a").HashKey(): 0.5, value.Text("b").HashKey(): 0.25,
		}}},
	} {
		if err := db.SetMechanism(set.sample, set.m); err != nil {
			t.Fatalf("SetMechanism(%s, %s): %v", set.sample, set.m.Name(), err)
		}
	}

	// One failed write of each Go-API kind.
	if err := db.Ingest("S", [][]any{{"Gus", "south"}, {"Hal", 7}}); err == nil {
		t.Fatal("Ingest of a row with an INT for a TEXT column succeeded")
	}
	if err := db.Engine().IngestTable("Nope", src); err == nil {
		t.Fatal("IngestTable into a missing relation succeeded")
	}
	if err := db.SetMechanism("Nope", mechanism.Uniform{Percent: 10}); err == nil {
		t.Fatal("SetMechanism on a missing sample succeeded")
	}
	var nse *mechanism.NoSQLError
	if err := db.SetMechanism("S", customMech{}); !errors.As(err, &nse) {
		t.Fatalf("SetMechanism(customMech) = %v, want a *mechanism.NoSQLError", err)
	}
	if err := db.AddMarginal("People", m2); err == nil {
		t.Fatal("AddMarginal of a marginal already added succeeded")
	}
	return db
}

// fixedPointQueries read, in every visibility, each sample of the fixed
// point world and so each of its mechanisms.
var fixedPointQueries = func() []string {
	var qs []string
	for _, vis := range []string{"CLOSED", "SEMI-OPEN"} {
		for _, q := range []string{
			"SELECT %s region, COUNT(*) FROM People GROUP BY region ORDER BY region", // S: BIASED, Go
			"SELECT %s COUNT(*), AVG(age) FROM People",                               // SU: UNIFORM, SQL then Go
			"SELECT %s COUNT(*), SUM(tier) FROM People",                              // SS: STRATIFIED, SQL, IPF
			"SELECT %s COUNT(*), AVG(score) FROM People",                             // SQ: STRATIFIED with probabilities, SQL
			"SELECT %s member, COUNT(*) FROM People GROUP BY member ORDER BY member", // SB: BIASED, SQL
			"SELECT %s city, COUNT(*) FROM People GROUP BY city ORDER BY city",       // SM: STRATIFIED with probabilities, Go
		} {
			qs = append(qs, fmt.Sprintf(q, vis))
		}
	}
	return append(qs,
		"SELECT OPEN region, COUNT(*) FROM People GROUP BY region ORDER BY region",
		"SELECT OPEN city, COUNT(*) FROM People GROUP BY city ORDER BY city",
		"SELECT name, region, WEIGHT FROM S",
		"SELECT region, score, WEIGHT FROM SQ",
	)
}()

// TestDumpFixedPoint: Restore(Dump(x)) is x. The dump of the restored world
// is the world's dump, byte for byte, and every answer — CLOSED, SEMI-OPEN
// through each mechanism, OPEN — is bit-identical.
func TestDumpFixedPoint(t *testing.T) {
	db := buildFixedPointWorld(t)
	script, err := db.Dump()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"USING MECHANISM BIASED ON (region = 'north') WITH PROBABILITIES (TRUE 0.5, FALSE 0.1)",
		"USING MECHANISM UNIFORM PERCENT 7.5",
		"USING MECHANISM STRATIFIED ON region PERCENT 20)",
		"USING MECHANISM STRATIFIED ON score PERCENT 30 WITH PROBABILITIES (0.5 0.25, 1.5 0.5, 2.25 0.125)",
		"USING MECHANISM BIASED ON (member = TRUE) WITH PROBABILITIES (TRUE 0.3, FALSE 0.05)",
		"USING MECHANISM STRATIFIED ON city PERCENT 25 WITH PROBABILITIES ('a' 0.5, 'b' 0.25)",
		"CREATE METADATA People_M2 FOR People",
	} {
		if !strings.Contains(script, want) {
			t.Errorf("dump lacks %q:\n%s", want, script)
		}
	}
	restored := mosaic.Open(snapshotOpts())
	if err := restored.Restore(script); err != nil {
		t.Fatalf("restore: %v\n%s", err, script)
	}
	again, err := restored.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if again != script {
		t.Errorf("Dump(Restore(Dump(x))) differs from Dump(x):\n%s\n---\n%s", again, script)
	}
	for _, q := range fixedPointQueries {
		if got, want := renderExact(t, restored, q), renderExact(t, db, q); got != want {
			t.Errorf("%s: restored answer\n %q\nwant\n %q", q, got, want)
		}
	}
}

// TestSetMechanismSurvivesRestore: a mechanism installed through
// SetMechanism is part of the dump, so SEMI-OPEN answers the same after a
// restore. Before mechanisms had SQL, the dump wrote this one as a comment:
// the restored sample had none, and COUNT(*) answered 100 (IPF against the
// census) instead of 40.
func TestSetMechanismSurvivesRestore(t *testing.T) {
	db := buildSnapshotWorld(t)
	biased := biasedOn(t, "region = 'north'", 0.5, 0.1)
	if err := db.SetMechanism("S", biased); err != nil {
		t.Fatal(err)
	}
	script, err := db.Dump()
	if err != nil {
		t.Fatal(err)
	}
	restored := mosaic.Open(snapshotOpts())
	if err := restored.Restore(script); err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		db   *mosaic.DB
	}{{"live", db}, {"restored", restored}} {
		if got, err := d.db.Scalar("SELECT SEMI-OPEN COUNT(*) FROM People"); err != nil || got != 40 {
			t.Errorf("%s: SEMI-OPEN COUNT(*) = %v (%v), want 40", d.name, got, err)
		}
		res, err := d.db.Query("SELECT SEMI-OPEN region, COUNT(*) FROM People GROUP BY region ORDER BY region")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.String(); !strings.Contains(got, "north") || len(res.Rows) != 2 ||
			res.Rows[0][1] != value.Float(10) || res.Rows[1][1] != value.Float(30) {
			t.Errorf("%s: SEMI-OPEN by region =\n%s\nwant north 10, south 30", d.name, got)
		}
	}
}

// TestRestoreFormat2DumpWithMechanismComment: a dump written before
// mechanisms had SQL (snapshot format 2) still restores. The samples whose
// mechanism it could write only as a comment restore without one, as they
// always did, and the restored world dumps as that dump without the
// comments.
func TestRestoreFormat2DumpWithMechanismComment(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "format2_mechanism_dump.sql"))
	if err != nil {
		t.Fatal(err)
	}
	comment := regexp.MustCompile(`; -- mechanism "[^\n]*" is not expressible in SQL; restore via SetMechanism\n`)
	if n := len(comment.FindAllIndex(old, -1)); n != 2 {
		t.Fatalf("testdata has %d mechanism comments, want 2:\n%s", n, old)
	}
	db := mosaic.Open(&mosaic.Options{Seed: 5})
	if err := db.Restore(string(old)); err != nil {
		t.Fatal(err)
	}
	got, err := db.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if want := comment.ReplaceAllString(string(old), ";\n"); got != want {
		t.Errorf("re-dump:\n%s\nwant:\n%s", got, want)
	}
	if got, err := db.Scalar("SELECT SEMI-OPEN COUNT(*) FROM People"); err != nil || got != 100 {
		t.Errorf("SEMI-OPEN COUNT(*) = %v (%v), want 100 (IPF: S restored without its mechanism)", got, err)
	}
}
