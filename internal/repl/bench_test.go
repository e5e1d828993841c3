package repl_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"mosaic"
	"mosaic/internal/repl"
	"mosaic/internal/server"
)

// BenchmarkBootstrap80k times one follower bootstrap from a primary holding
// an 80k-row sample of the benchmark's 5-column synthetic shape: the
// primary's dump, the text body over loopback HTTP, and the replay.
func BenchmarkBootstrap80k(b *testing.B) {
	opts := &mosaic.Options{Seed: 1, Workers: 1}
	db := mosaic.Open(opts)
	if err := db.Exec(`
		CREATE GLOBAL POPULATION P (c10 TEXT, c1k TEXT, c100k TEXT, x INT, y FLOAT);
		CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 10);
	`); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]any, 80000)
	for i := range rows {
		rows[i] = []any{
			fmt.Sprintf("g%d", rng.Intn(10)),
			fmt.Sprintf("k%d", rng.Intn(1000)),
			fmt.Sprintf("u%d", rng.Intn(100000)),
			rng.Intn(1000),
			rng.Float64() * 100,
		}
	}
	if err := db.Ingest("S", rows); err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, RequestTimeout: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := repl.NewFollower(repl.Config{Primary: ts.URL, DB: mosaic.Open(opts)})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Bootstrap(context.Background()); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}
