package core

import (
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

const bulkWorld = `CREATE GLOBAL POPULATION P (c TEXT, x INT, y FLOAT, b BOOL);
CREATE SAMPLE S AS (SELECT * FROM P);`

func sampleTable(t *testing.T, e *Engine, name string) *table.Table {
	t.Helper()
	s, ok := e.Catalog().Sample(name)
	if !ok {
		t.Fatalf("no sample %s", name)
	}
	return s.Table
}

// native is v's payload as the Go value Ingest takes: int64, float64,
// string, bool, or nil for NULL.
func native(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	case value.KindText:
		return v.AsText()
	case value.KindBool:
		return v.AsBool()
	default:
		return nil
	}
}

// bulkCell draws a value for a column of kind k: NULL, NaN, ±Inf, −0,
// INT↔FLOAT coercions, repeated and new TEXT, or (bad) one that does not
// coerce.
func bulkCell(rng *rand.Rand, k value.Kind, bad bool, fresh *int) value.Value {
	if bad {
		if k == value.KindText {
			return value.Int(7)
		}
		return value.Text("bad")
	}
	if rng.Intn(8) == 0 {
		return value.Null()
	}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.5, -3.75, 1e300}
	switch k {
	case value.KindInt:
		if rng.Intn(4) == 0 {
			return value.Float(floats[rng.Intn(len(floats))])
		}
		return value.Int(rng.Int63n(2000) - 1000)
	case value.KindFloat:
		switch rng.Intn(3) {
		case 0:
			return value.Int(rng.Int63n(2000) - 1000)
		case 1:
			return value.Float(floats[rng.Intn(len(floats))])
		}
		return value.Float(rng.NormFloat64())
	case value.KindBool:
		return value.Bool(rng.Intn(2) == 0)
	default:
		if rng.Intn(3) == 0 {
			*fresh++
			return value.Text(fmt.Sprintf("new,%d", *fresh))
		}
		return value.Text(fmt.Sprintf("t'%d", rng.Intn(5)))
	}
}

// bulkRows draws n rows for P's schema. With badCol ≥ 0 the row at index
// badRow gets an uncoercible value in that column.
func bulkRows(rng *rand.Rand, sc *schema.Schema, n, badRow, badCol int, fresh *int) [][]value.Value {
	rows := make([][]value.Value, n)
	for r := range rows {
		rows[r] = make([]value.Value, sc.Len())
		for c := range rows[r] {
			rows[r][c] = bulkCell(rng, sc.At(c).Kind, r == badRow && c == badCol, fresh)
		}
	}
	return rows
}

// sameTables compares two tables bit for bit through their snapshots.
func sameTables(t *testing.T, what string, got, want *table.Table) {
	t.Helper()
	g, w := got.Snapshot(), want.Snapshot()
	if g.Len() != w.Len() {
		t.Fatalf("%s: %d rows, want %d", what, g.Len(), w.Len())
	}
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	for ci := 0; ci < w.Schema().Len(); ci++ {
		gc, wc := g.Col(ci), w.Col(ci)
		if !reflect.DeepEqual(gc.Ints, wc.Ints) || !reflect.DeepEqual(bits(gc.Floats), bits(wc.Floats)) ||
			!reflect.DeepEqual(gc.Bools, wc.Bools) || !reflect.DeepEqual(gc.Codes, wc.Codes) ||
			!reflect.DeepEqual(gc.Nulls, wc.Nulls) {
			t.Fatalf("%s: column %d differs", what, ci)
		}
	}
	if !reflect.DeepEqual(bits(g.Weights()), bits(w.Weights())) {
		t.Fatalf("%s: weights differ", what)
	}
	if !reflect.DeepEqual(g.DictStrings(), w.DictStrings()) {
		t.Fatalf("%s: dictionaries differ", what)
	}
}

// bulkPath is one bulk write path under test and its per-row reference:
// the same rows through table.Append one at a time, with the error the
// path must report. Both get the same batch; badRow is -1 or the row that
// must stop the load.
type bulkPath struct {
	name string
	// batch draws one batch and the row that must fail (-1 for none).
	batch func(rng *rand.Rand, sc *schema.Schema, fresh *int) (any, int)
	bulk  func(e *Engine, batch any) error
	ref   func(e *Engine, batch any) error
}

func appendEach(tbl *table.Table, rows [][]value.Value, wrap func(ri int, err error) error) error {
	for ri, r := range rows {
		if err := tbl.Append(r); err != nil {
			return wrap(ri, err)
		}
	}
	return nil
}

func bulkPaths(t *testing.T) []bulkPath {
	dir := t.TempDir()
	pick := func(rng *rand.Rand, n int) int {
		if n == 0 || rng.Intn(2) == 0 {
			return -1
		}
		return rng.Intn(n)
	}
	valueBatch := func(rng *rand.Rand, sc *schema.Schema, fresh *int) (any, int) {
		n := rng.Intn(3000) // Ingest converts 1024 rows at a time
		bad := pick(rng, n)
		return bulkRows(rng, sc, n, bad, rng.Intn(sc.Len()), fresh), bad
	}
	ingestErr := func(ri int, err error) error { return fmt.Errorf("core: ingest S row %d: %v", ri+1, err) }
	return []bulkPath{
		{
			name:  "Ingest",
			batch: valueBatch,
			bulk: func(e *Engine, batch any) error {
				rows := batch.([][]value.Value)
				raw := make([][]any, len(rows))
				for i, r := range rows {
					for _, v := range r {
						raw[i] = append(raw[i], native(v))
					}
					if v := r[0]; v.Kind() == value.KindText && v.AsText() == "bad" {
						raw[i][0] = uint8(1) // a Go type Ingest does not take
					}
				}
				return e.Ingest("S", raw)
			},
			ref: func(e *Engine, batch any) error {
				rows := batch.([][]value.Value)
				for ri, r := range rows {
					if v := r[0]; v.Kind() == value.KindText && v.AsText() == "bad" {
						_, err := value.FromRaw(uint8(1))
						return ingestErr(ri, err)
					}
					if err := sampleTable(t, e, "S").Append(r); err != nil {
						return ingestErr(ri, err)
					}
				}
				return nil
			},
		},
		{
			name:  "BulkAppend",
			batch: valueBatch,
			bulk: func(e *Engine, batch any) error {
				return sampleTable(t, e, "S").BulkAppend(batch.([][]value.Value))
			},
			ref: func(e *Engine, batch any) error {
				return appendEach(sampleTable(t, e, "S"), batch.([][]value.Value), func(ri int, err error) error { return err })
			},
		},
		{
			// The source stores x as FLOAT and y as INT, so both coerce on the
			// way in, and b as TEXT: NULL in every row but the bad one.
			name: "IngestTable",
			batch: func(rng *rand.Rand, sc *schema.Schema, fresh *int) (any, int) {
				n := rng.Intn(3000)
				bad := pick(rng, n)
				src := table.New("src", schema.MustNew(
					schema.Attribute{Name: "c", Kind: value.KindText},
					schema.Attribute{Name: "x", Kind: value.KindFloat},
					schema.Attribute{Name: "y", Kind: value.KindInt},
					schema.Attribute{Name: "b", Kind: value.KindText}))
				for ri, r := range bulkRows(rng, sc, n, -1, -1, fresh) {
					r[3] = value.Null()
					if ri == bad {
						r[3] = value.Text("yes")
					}
					if err := src.Append(r); err != nil {
						t.Fatal(err)
					}
				}
				return src, bad
			},
			bulk: func(e *Engine, batch any) error { return e.IngestTable("S", batch.(*table.Table)) },
			ref: func(e *Engine, batch any) error {
				src := batch.(*table.Table)
				var rows [][]value.Value
				src.Scan(func(row []value.Value, _ float64) bool { rows = append(rows, row); return true })
				return appendEach(sampleTable(t, e, "S"), rows, ingestErr)
			},
		},
		{
			// CSV cannot spell an empty TEXT or a FLOAT in an INT field, so
			// cells are coerced first; the bad row has a field that does not
			// parse.
			name: "COPY",
			batch: func(rng *rand.Rand, sc *schema.Schema, fresh *int) (any, int) {
				n := rng.Intn(3000)
				bad := pick(rng, n)
				badCol := 1 + rng.Intn(sc.Len()-1) // any field but TEXT
				var b strings.Builder
				w := csv.NewWriter(&b)
				for ri, r := range bulkRows(rng, sc, n, -1, -1, fresh) {
					rec := make([]string, len(r))
					for c, v := range r {
						v, _ = value.Coerce(v, sc.At(c).Kind)
						switch {
						case ri == bad && c == badCol:
							rec[c] = "bad"
						case v.IsNull():
						case v.Kind() == value.KindFloat:
							rec[c] = strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
						case v.Kind() == value.KindText:
							rec[c] = v.AsText()
						default:
							rec[c] = v.String()
						}
					}
					if err := w.Write(rec); err != nil {
						t.Fatal(err)
					}
				}
				w.Flush()
				path := filepath.Join(dir, fmt.Sprintf("rows%d.csv", rng.Int63()))
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return path, bad
			},
			bulk: func(e *Engine, batch any) error {
				_, err := e.ExecScript(`COPY S FROM '` + batch.(string) + `'`)
				return err
			},
			ref: func(e *Engine, batch any) error {
				f, err := os.Open(batch.(string))
				if err != nil {
					return err
				}
				defer f.Close()
				recs, err := csv.NewReader(f).ReadAll()
				if err != nil {
					return err
				}
				tbl := sampleTable(t, e, "S")
				sc := tbl.Schema()
				for ri, rec := range recs {
					row := make([]value.Value, len(rec))
					for c, field := range rec {
						if row[c], err = parseCSVField(field, sc.At(c).Kind); err != nil {
							return fmt.Errorf("statement 1: core: COPY S row %d: column %q: %v", ri+1, sc.At(c).Name, err)
						}
					}
					if err := tbl.Append(row); err != nil {
						return fmt.Errorf("statement 1: core: COPY S row %d: %v", ri+1, err)
					}
				}
				return nil
			},
		},
		{
			// The rows as one COPY block, weights in its WEIGHT column: every
			// value travels as its literal, which scans back to it, and the
			// bad row has a value that does not coerce.
			name: "COPY block",
			batch: func(rng *rand.Rand, sc *schema.Schema, fresh *int) (any, int) {
				n := rng.Intn(3000)
				bad := pick(rng, n)
				b := weightedRows{rows: bulkRows(rng, sc, n, bad, rng.Intn(sc.Len()), fresh)}
				for range b.rows {
					b.wts = append(b.wts, float64(rng.Intn(6))/2)
				}
				return b, bad
			},
			bulk: func(e *Engine, batch any) error {
				b := batch.(weightedRows)
				cols := append(sampleTable(t, e, "S").Schema().Names(), "WEIGHT")
				_, err := e.ExecScript(string(sql.AppendBlock(nil, "S", cols, len(b.rows), func(i int) []value.Value {
					return append(slices.Clip(b.rows[i]), value.Float(b.wts[i]))
				})))
				return err
			},
			ref: func(e *Engine, batch any) error {
				b := batch.(weightedRows)
				for ri, r := range b.rows {
					if err := sampleTable(t, e, "S").AppendWeighted(r, b.wts[ri]); err != nil {
						return fmt.Errorf("statement 1: core: COPY S row %d: %v", ri+1, err)
					}
				}
				return nil
			},
		},
	}
}

// weightedRows is a batch of rows with a weight for each.
type weightedRows struct {
	rows [][]value.Value
	wts  []float64
}

// TestBulkLoadsMatchPerRowAppend: Ingest, BulkAppend, IngestTable, COPY
// from a file and a COPY block each store what a loop of table.Append
// stores — bit for bit, in the same
// dictionary order, with the same dump — and stop on the same row with the
// same error, keeping the rows before it and moving the table's Version.
func TestBulkLoadsMatchPerRowAppend(t *testing.T) {
	for _, p := range bulkPaths(t) {
		t.Run(p.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				bulk, ref := NewEngine(Options{}), NewEngine(Options{})
				exec1(t, bulk, bulkWorld)
				exec1(t, ref, bulkWorld)
				sc := sampleTable(t, ref, "S").Schema()
				fresh := 0
				for b := 0; b < 3; b++ {
					batch, bad := p.batch(rng, sc, &fresh)
					what := fmt.Sprintf("seed %d batch %d (bad row %d)", seed, b, bad)
					before := sampleTable(t, bulk, "S").Version()
					n0 := sampleTable(t, bulk, "S").Len()
					err, refErr := p.bulk(bulk, batch), p.ref(ref, batch)
					if (err == nil) != (bad < 0) {
						t.Fatalf("%s: error %v", what, err)
					}
					if err != nil && (refErr == nil || err.Error() != refErr.Error()) {
						t.Fatalf("%s: error\n%v\nwant\n%v", what, err, refErr)
					}
					sameTables(t, what, sampleTable(t, bulk, "S"), sampleTable(t, ref, "S"))
					if grew := sampleTable(t, bulk, "S").Len() > n0; grew != (sampleTable(t, bulk, "S").Version() > before) {
						t.Fatalf("%s: grew %v but version %d → %d", what, grew, before, sampleTable(t, bulk, "S").Version())
					}
					// Non-unit weights, so the dump carries them as data.
					exec1(t, bulk, `UPDATE SAMPLE S SET WEIGHT = 2 WHERE x > 0`)
					exec1(t, ref, `UPDATE SAMPLE S SET WEIGHT = 2 WHERE x > 0`)
					got, err := bulk.DumpScript()
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.DumpScript()
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s: dumps differ", what)
					}
				}
			}
		})
	}
}

// TestIngestTableIntoItself: reading the source through one snapshot lets
// a relation be ingested into itself — it doubles, with its rows as they
// were when the call began. Scanning under the source's read lock while
// appending under its write lock hung forever, holding the engine's lock.
func TestIngestTableIntoItself(t *testing.T) {
	e := NewEngine(Options{})
	exec1(t, e, `CREATE TABLE T (c TEXT, x INT); INSERT INTO T VALUES ('a', 1), (NULL, 2), ('b', NULL)`)
	tbl, _ := e.Catalog().Table("T")
	want := append(query(t, e, "SELECT * FROM T"), query(t, e, "SELECT * FROM T")...)
	done := make(chan error, 1)
	go func() { done <- e.IngestTable("T", tbl) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("IngestTable of a table into itself still blocked after 10 s")
	}
	if got := query(t, e, "SELECT * FROM T"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("T after ingesting itself:\n%v\nwant\n%v", got, want)
	}
}

// TestIngestErrorNamesTheRow: every per-row failure of Ingest, a Go type it
// does not take or a value the schema does not coerce, names the row, and
// the rows before it stay.
func TestIngestErrorNamesTheRow(t *testing.T) {
	for _, tc := range []struct {
		rows [][]any
		want string
	}{
		{[][]any{{3}, {"bad"}}, `core: ingest S row 2: table S: schema: attribute "a": value: cannot coerce TEXT to INT`},
		{[][]any{{3}, {4}, {uint8(5)}}, `core: ingest S row 3: value: unsupported Go type uint8`},
		{[][]any{{3}, {4, 5}}, `core: ingest S row 2: table S: schema: row has 2 values, schema has 1 attributes`},
	} {
		e := NewEngine(Options{})
		exec1(t, e, `CREATE GLOBAL POPULATION P (a INT); CREATE SAMPLE S AS (SELECT * FROM P)`)
		err := e.Ingest("S", tc.rows)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Ingest(%v) = %v, want %s", tc.rows, err, tc.want)
		}
		if got, want := sampleTable(t, e, "S").Len(), len(tc.rows)-1; got != want {
			t.Errorf("Ingest(%v) kept %d rows, want %d", tc.rows, got, want)
		}
	}
}

// TestIngestAllocationsDoNotGrowWithRows: Ingest converts a chunk at a time
// into reused buffers, so what it allocates past the columns' own growth is
// the same for any row count (it was two slices per row).
func TestIngestAllocationsDoNotGrowWithRows(t *testing.T) {
	rows := make([][]any, 16*ingestChunk)
	for i := range rows {
		rows[i] = []any{fmt.Sprintf("g%d", i%10), i, float64(i) / 3}
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			e := NewEngine(Options{})
			if _, err := e.ExecScript(`CREATE TABLE T (c TEXT, x INT, y FLOAT)`); err != nil {
				t.Fatal(err)
			}
			if err := e.Ingest("T", rows[:n]); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2*ingestChunk), allocs(16*ingestChunk)
	// Eight times the rows: the columns grow through a few more
	// reallocations (about 160 allocations against 200), but nothing is
	// allocated per row; that was some 28,000 more.
	if large > 2*small {
		t.Errorf("Ingest allocated %v times for %d rows and %v for %d", small, 2*ingestChunk, large, 16*ingestChunk)
	}
}
