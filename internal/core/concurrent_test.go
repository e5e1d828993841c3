package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mosaic/internal/sql"
	"mosaic/internal/swg"
)

// TestConcurrentQueriesAndMutations hammers one engine with goroutines
// mixing every visibility of Query against Ingest, CREATE/DROP METADATA, and
// UPDATE SAMPLE. Run under -race this is the engine's central safety test:
// readers share the engine read lock while each mutation takes the write
// lock and changes the inputs the cached models and fits answer for. Queries
// may legitimately error while metadata is mid-swap (e.g. "needs population
// marginals"); the test asserts freedom from races, panics, and deadlocks,
// and that a quiesced engine answers correctly afterwards.
func TestConcurrentQueriesAndMutations(t *testing.T) {
	e := NewEngine(Options{
		Seed:        1,
		OpenSamples: 3,
		Workers:     4,
		SWG: swg.Config{
			Hidden: []int{8, 8}, Latent: 2, Epochs: 2,
			BatchSize: 64, Projections: 6, StepsPerEpoch: 2,
		},
	})
	exec1(t, e, `
		CREATE GLOBAL POPULATION World (grp TEXT, v INT);
		CREATE SAMPLE S AS (SELECT * FROM World WHERE grp = 'a');
		CREATE TABLE Truth (grp TEXT, v INT, n INT);
	`)
	if err := e.Ingest("Truth", [][]any{{"a", 1, 40}, {"b", 2, 60}}); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `
		CREATE METADATA World_M1 AS (SELECT grp, n FROM Truth);
		CREATE METADATA World_M2 AS (SELECT v, n FROM Truth);
	`)
	if err := e.Ingest("S", [][]any{
		{"a", 1}, {"a", 1}, {"a", 1}, {"a", 1}, {"a", 1},
		{"a", 1}, {"a", 1}, {"a", 1}, {"a", 1}, {"a", 1},
	}); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`SELECT SEMI-OPEN COUNT(*) FROM World`,
		`SELECT SEMI-OPEN grp, COUNT(*) FROM World GROUP BY grp`,
		`SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp`,
		`SELECT CLOSED COUNT(*) FROM World`,
		`SELECT COUNT(*) FROM S`,
		`EXPLAIN SELECT OPEN COUNT(*) FROM World`,
	}
	const (
		readers   = 8
		mutators  = 4
		iterEach  = 25
		mutations = 10
	)
	var answered, errored atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterEach; i++ {
				if _, err := e.ExecScript(queries[(g+i)%len(queries)]); err != nil {
					// Transient planning errors are expected while metadata
					// is mid-swap; data races and panics are not.
					errored.Add(1)
				} else {
					answered.Add(1)
				}
			}
		}(g)
	}
	for g := 0; g < mutators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < mutations; i++ {
				switch i % 3 {
				case 0:
					if err := e.Ingest("S", [][]any{{"a", 1}}); err != nil {
						t.Errorf("ingest: %v", err)
					}
				case 1:
					name := fmt.Sprintf("Churn%dx%d", g, i)
					if _, err := e.ExecScript(fmt.Sprintf(
						`CREATE METADATA %s FOR World AS (SELECT grp, n FROM Truth); DROP METADATA %s;`, name, name)); err != nil {
						t.Errorf("metadata churn: %v", err)
					}
				case 2:
					if _, err := e.ExecScript(`UPDATE SAMPLE S SET WEIGHT = 1;`); err != nil {
						t.Errorf("update weights: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if answered.Load() == 0 {
		t.Fatal("no query succeeded under concurrency")
	}
	t.Logf("answered=%d transient-errors=%d", answered.Load(), errored.Load())

	// Quiesced engine still answers correctly: 10 original + 4 mutators ×
	// ceil(10/3) ingests of one row each.
	n := scalar(t, e, `SELECT COUNT(*) FROM S`)
	want := 10.0 + float64(mutators)*4
	if n != want {
		t.Errorf("sample size after stress = %g, want %g", n, want)
	}
	c := scalar(t, e, `SELECT SEMI-OPEN COUNT(*) FROM World`)
	if c < 99 || c > 101 {
		t.Errorf("SEMI-OPEN count after stress = %g, want ≈100", c)
	}
}

// TestConcurrentOpenQueriesShareOneModel asserts the single-flight model
// cache: many concurrent first OPEN queries on a cold engine must all
// succeed and agree (training happened once; replicate streams are seeded by
// index, not by arrival order).
func TestConcurrentOpenQueriesShareOneModel(t *testing.T) {
	e := determinismWorld(t, 2)
	q, err := sql.ParseQuery(`SELECT OPEN grp, COUNT(*) FROM World GROUP BY grp ORDER BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	results := make([]string, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := e.Query(q)
			if err != nil {
				errs[c] = err
				return
			}
			results[c] = renderRows(res.Rows)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	for c := 1; c < clients; c++ {
		if results[c] != results[0] {
			t.Errorf("client %d answer differs:\n%s\nvs\n%s", c, results[c], results[0])
		}
	}
}
