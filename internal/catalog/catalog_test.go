package catalog

import (
	"strings"
	"testing"

	"mosaic/internal/marginal"
	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/value"
)

var popSchema = schema.MustNew(
	schema.Attribute{Name: "country", Kind: value.KindText},
	schema.Attribute{Name: "email", Kind: value.KindText},
	schema.Attribute{Name: "age", Kind: value.KindInt},
)

func freshWithGP(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	if _, err := c.CreateGlobalPopulation("GP", popSchema); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSingleGlobalPopulation(t *testing.T) {
	c := freshWithGP(t)
	if _, err := c.CreateGlobalPopulation("GP2", popSchema); err == nil {
		t.Error("second global population should fail")
	}
	gp, ok := c.GlobalPopulation()
	if !ok || gp.Name != "GP" || !gp.Global {
		t.Errorf("GlobalPopulation = %+v, %v", gp, ok)
	}
}

func TestNameCollisionAcrossKinds(t *testing.T) {
	c := freshWithGP(t)
	if _, err := c.CreateTable("gp", popSchema); err == nil {
		t.Error("table name colliding with population should fail (case-insensitive)")
	}
	if _, err := c.CreateTable("aux", popSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSample("AUX", "GP", nil, nil, nil); err == nil {
		t.Error("sample name colliding with table should fail")
	}
}

func TestDerivedPopulation(t *testing.T) {
	c := freshWithGP(t)
	pred, _ := sql.ParseExpr("age > 30")
	p, err := c.CreatePopulation("Old", "GP", pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Global || p.From != "GP" || p.Where == nil {
		t.Errorf("derived population: %+v", p)
	}
	// Projected attribute list.
	p2, err := c.CreatePopulation("Slim", "GP", nil, []string{"country"})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Schema.Len() != 1 {
		t.Errorf("projected schema: %s", p2.Schema)
	}
	// Populations must chain from the GP only.
	if _, err := c.CreatePopulation("Bad", "Old", nil, nil); err == nil {
		t.Error("population over non-global population should fail")
	}
	if _, err := c.CreatePopulation("Bad", "Missing", nil, nil); err == nil {
		t.Error("population over missing relation should fail")
	}
}

// TestPopulationPredicateNamesGlobalAttributes: a population's WHERE reads
// the global population's tuples, so it may name only their attributes —
// WEIGHT included, unless the global population declares a column of that
// name. An unknown name used to be accepted, and every later read of the
// population then failed with an unrelated "no sample covers" refusal.
func TestPopulationPredicateNamesGlobalAttributes(t *testing.T) {
	c := freshWithGP(t)
	for _, src := range []string{"nosuch > 0", "weight > 1", "age > 30 AND Nosuch = 'x'"} {
		pred, err := sql.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.CreatePopulation("V", "GP", pred, nil)
		if err == nil || !strings.Contains(err.Error(), "not an attribute of \"GP\"") {
			t.Errorf("WHERE %s: %v, want a refusal naming the column", src, err)
		}
		if _, ok := c.Population("V"); ok {
			t.Errorf("WHERE %s: the refused population was registered", src)
		}
	}
	w := New()
	if _, err := w.CreateGlobalPopulation("W", schema.MustNew(schema.Attribute{Name: "Weight", Kind: value.KindFloat})); err != nil {
		t.Fatal(err)
	}
	pred, _ := sql.ParseExpr("WEIGHT > 1")
	if _, err := w.CreatePopulation("Heavy", "W", pred, nil); err != nil {
		t.Errorf("WHERE over a declared WEIGHT column: %v", err)
	}
}

func TestSampleSchemaContainment(t *testing.T) {
	c := freshWithGP(t)
	sub := schema.MustNew(
		schema.Attribute{Name: "country", Kind: value.KindText},
	)
	s, err := c.CreateSample("S", "GP", nil, sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Table.Schema().Len() != 1 {
		t.Errorf("sample schema: %s", s.Table.Schema())
	}
	// Attributes outside the population are rejected.
	bad := schema.MustNew(schema.Attribute{Name: "zzz", Kind: value.KindText})
	if _, err := c.CreateSample("S2", "GP", nil, bad, nil); err == nil {
		t.Error("sample with foreign attribute should fail")
	}
	// nil schema inherits the population schema.
	s3, err := c.CreateSample("S3", "GP", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s3.Table.Schema().Equal(popSchema) {
		t.Error("nil sample schema should inherit population schema")
	}
	if _, err := c.CreateSample("S4", "Missing", nil, nil, nil); err == nil {
		t.Error("sample over missing population should fail")
	}
}

func TestSamplesOf(t *testing.T) {
	c := freshWithGP(t)
	if _, err := c.CreateSample("A", "GP", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSample("B", "GP", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(c.SamplesOf("gp")); got != 2 {
		t.Errorf("SamplesOf = %d", got)
	}
	if got := len(c.SamplesOf("other")); got != 0 {
		t.Errorf("SamplesOf(other) = %d", got)
	}
	if got := len(c.AllSamples()); got != 2 {
		t.Errorf("AllSamples = %d", got)
	}
}

func TestMarginalRegistration(t *testing.T) {
	c := freshWithGP(t)
	m, _ := marginal.New("GP_M1", []string{"country"})
	_ = m.Add([]value.Value{value.Text("UK")}, 10)
	if err := c.AddMarginal("GP", m); err != nil {
		t.Fatal(err)
	}
	gp, _ := c.Population("GP")
	if len(gp.MarginalList()) != 1 {
		t.Errorf("marginal list = %v", gp.MarginalList())
	}
	// Duplicate metadata name rejected.
	m2, _ := marginal.New("GP_M1", []string{"email"})
	_ = m2.Add([]value.Value{value.Text("Yahoo")}, 10)
	if err := c.AddMarginal("GP", m2); err == nil {
		t.Error("duplicate metadata name should fail")
	}
	// Foreign attribute rejected.
	bad, _ := marginal.New("GP_M9", []string{"zzz"})
	_ = bad.Add([]value.Value{value.Text("x")}, 1)
	if err := c.AddMarginal("GP", bad); err == nil {
		t.Error("marginal over missing attribute should fail")
	}
	if err := c.AddMarginal("Missing", m2); err == nil {
		t.Error("marginal on missing population should fail")
	}
	// Registration order preserved.
	m3, _ := marginal.New("GP_M2", []string{"email"})
	_ = m3.Add([]value.Value{value.Text("Yahoo")}, 10)
	if err := c.AddMarginal("GP", m3); err != nil {
		t.Fatal(err)
	}
	list := gp.MarginalList()
	if list[0].Name != "GP_M1" || list[1].Name != "GP_M2" {
		t.Errorf("marginal order = %v, %v", list[0].Name, list[1].Name)
	}
}

func TestResolve(t *testing.T) {
	c := freshWithGP(t)
	_, _ = c.CreateTable("t", popSchema)
	_, _ = c.CreateSample("s", "GP", nil, nil, nil)
	cases := map[string]string{
		"t": "table", "GP": "population", "s": "sample", "nope": "",
	}
	for name, want := range cases {
		if got := c.Resolve(name); got != want {
			t.Errorf("Resolve(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestDropLifecycle(t *testing.T) {
	c := freshWithGP(t)
	_, _ = c.CreateTable("t", popSchema)
	s, _ := c.CreateSample("s", "GP", nil, nil, nil)
	_ = s
	m, _ := marginal.New("GP_M1", []string{"country"})
	_ = m.Add([]value.Value{value.Text("UK")}, 1)
	_ = c.AddMarginal("GP", m)

	// GP cannot be dropped while dependents exist.
	if err := c.Drop("POPULATION", "GP"); err == nil {
		t.Error("dropping GP with a dependent sample should fail")
	}
	if err := c.Drop("SAMPLE", "s"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("METADATA", "GP_M1"); err != nil {
		t.Fatal(err)
	}
	gp, _ := c.Population("GP")
	if len(gp.MarginalList()) != 0 {
		t.Error("metadata not removed")
	}
	if err := c.Drop("TABLE", "t"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("POPULATION", "GP"); err != nil {
		t.Fatalf("dropping GP after dependents removed: %v", err)
	}
	if _, ok := c.GlobalPopulation(); ok {
		t.Error("GP still registered after drop")
	}
	// A new GP can now be declared.
	if _, err := c.CreateGlobalPopulation("GP2", popSchema); err != nil {
		t.Errorf("re-declaring GP: %v", err)
	}
	// Unknown names and kinds error.
	for kind, name := range map[string]string{
		"TABLE": "x", "POPULATION": "x", "SAMPLE": "x", "METADATA": "x",
	} {
		if err := c.Drop(kind, name); err == nil {
			t.Errorf("Drop(%s, x) should fail", kind)
		}
	}
	if err := c.Drop("INDEX", "x"); err == nil || !strings.Contains(err.Error(), "unknown relation kind") {
		t.Errorf("Drop INDEX error = %v", err)
	}
}

func TestDropGlobalPopulationBlockedByDerivedPopulation(t *testing.T) {
	c := freshWithGP(t)
	if _, err := c.CreatePopulation("Sub", "GP", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("POPULATION", "GP"); err == nil {
		t.Error("dropping GP with a derived population should fail")
	}
}

func TestRegisterTable(t *testing.T) {
	c := New()
	tbl, err := c.CreateTable("t", popSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTable(tbl); err == nil {
		t.Error("re-registering the same name should fail")
	}
	got, ok := c.Table("T")
	if !ok || got != tbl {
		t.Error("case-insensitive table lookup failed")
	}
}
