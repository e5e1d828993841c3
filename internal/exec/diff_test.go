package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// diffSchema exercises every column kind, with NULLs allowed everywhere.
var diffSchema = schema.MustNew(
	schema.Attribute{Name: "c", Kind: value.KindText},
	schema.Attribute{Name: "x", Kind: value.KindInt},
	schema.Attribute{Name: "y", Kind: value.KindFloat},
	schema.Attribute{Name: "b", Kind: value.KindBool},
	schema.Attribute{Name: "n", Kind: value.KindInt},
)

// diffTable builds a deterministic fixture with duplicates, NULLs in every
// column, ±0 (scattered, and in a closing -0 / +0 / NULL tie cluster),
// NaN-free floats (NaN weights would poison sums on both paths
// identically but make failures hard to read), and non-unit weights
// including zero.
func diffTable(tb testing.TB, n int, seed int64) *table.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	t := table.New("t", diffSchema)
	for i := 0; i < n; i++ {
		row := make([]value.Value, 5)
		if rng.Intn(10) == 0 {
			row[0] = value.Null()
		} else {
			row[0] = value.Text(fmt.Sprintf("g%d", rng.Intn(6)))
		}
		if rng.Intn(10) == 0 {
			row[1] = value.Null()
		} else {
			row[1] = value.Int(int64(rng.Intn(1000) - 500))
		}
		switch rng.Intn(12) {
		case 0:
			row[2] = value.Null()
		case 1:
			row[2] = value.Float(0)
		case 2:
			row[2] = value.Float(math.Copysign(0, -1)) // -0: one value with 0, in groups and compares
		default:
			row[2] = value.Float(float64(int(rng.Float64()*2000-1000)) / 8)
		}
		// The last rows of every table big enough to hold them form a tie
		// cluster in y: -0, +0 and NULL on adjacent rows, three times over. A
		// sort that tells the zeros apart, or puts NULL anywhere but below
		// every value, reorders it in each ORDER BY y shape.
		if n >= 64 && i >= n-9 {
			row[2] = []value.Value{value.Float(math.Copysign(0, -1)), value.Float(0), value.Null()}[i%3]
		}
		if rng.Intn(10) == 0 {
			row[3] = value.Null()
		} else {
			row[3] = value.Bool(rng.Intn(2) == 0)
		}
		if rng.Intn(3) == 0 {
			row[4] = value.Null()
		} else {
			row[4] = value.Int(int64(rng.Intn(4)))
		}
		w := float64(rng.Intn(8)) / 2 // weights 0, 0.5, ... 3.5
		if err := t.AppendWeighted(row, w); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// diffWheres covers every kernel plus shapes that must fall back.
var diffWheres = []string{
	"",
	"WHERE x > 42",
	"WHERE x >= -100 AND x <= 100",
	"WHERE y < 12.5",
	"WHERE y != 0",
	"WHERE c = 'g3'",
	"WHERE c != 'g3'",
	"WHERE c = 'not-present'",
	"WHERE c < 'g2'",
	"WHERE c >= 'g4'",
	"WHERE b",
	"WHERE NOT b",
	"WHERE b = TRUE",
	"WHERE n IS NULL",
	"WHERE n IS NOT NULL",
	"WHERE x IN (1, 2, 3)",
	"WHERE x IN (1, 2, NULL)",
	"WHERE x NOT IN (1, 2, NULL)",
	"WHERE c IN ('g1', 'zzz')",
	"WHERE c NOT IN ('g1', 'g2')",
	"WHERE b IN (TRUE)",
	"WHERE y BETWEEN -10 AND 50",
	"WHERE x NOT BETWEEN 0 AND 400",
	"WHERE x BETWEEN NULL AND 10",
	"WHERE x > 100 AND y < 50 OR b",
	"WHERE c != 'g3' AND y < 75", // text and float kernels under one AND
	"WHERE NOT (x > 100 OR c = 'g1')",
	"WHERE x > y",
	"WHERE x = n",
	"WHERE c = c",
	"WHERE WEIGHT > 1",
	"WHERE WEIGHT = 0",
	"WHERE x > 2.5", // INT column against a FLOAT literal
	"WHERE x = 42.0",
	"WHERE 2.5 < x", // literal on the left
	"WHERE 100 >= x",
	"WHERE WEIGHT",
	"WHERE WEIGHT IN (0.5, 2)",
	"WHERE WEIGHT NOT BETWEEN 1 AND 2",
	"WHERE x BETWEEN -0.5 AND 10.5",
	"WHERE x = NULL",
	"WHERE x > 'text'",
	"WHERE b > 5",
	"WHERE x",
	"WHERE -x",
	"WHERE 1",
	"WHERE NULL",
	// Arithmetic kernels (and their fallback edges).
	"WHERE x + 1 > y",
	"WHERE x * 2 > y + 1",
	"WHERE (x * 2) IN (4, 8)",
	"WHERE x % 5 = 0",
	"WHERE (x + y) / 2 >= 1",
	"WHERE x / 4 > 10 OR y * -1 < 0",
	"WHERE -(x + 1) < 0",
	"WHERE x + 1 IS NULL",
	"WHERE x + 1 IS NOT NULL",
	"WHERE x * 2 BETWEEN 10 AND 100",
	"WHERE y - 0.5 NOT BETWEEN 0 AND 1",
	"WHERE x * 2 BETWEEN NULL AND 100",
	"WHERE x * 2 NOT BETWEEN 'a' AND 100", // bound of another class: ranked, not compared
	"WHERE x / n BETWEEN 'a' AND 5",       // ... with the child's division errors
	"WHERE x + NULL > 3",
	"WHERE x + y",
	"WHERE x - x",
	"WHERE 2 + 3 > 4",              // constant-folds to TRUE
	"WHERE x / n > 2",              // n has zeros: division-by-zero error on both paths
	"WHERE n IS NULL OR x / n > 2", // error suppressed only where short-circuited? no: OR evaluates both arms
	"WHERE x > 0 AND x / 0 > 1",    // constant zero divisor behind an AND
	"WHERE x % n = 1",              // modulo by zero error
	"WHERE x / 0 > 1",
	"WHERE WEIGHT * 2 > 1",
	"WHERE x + c > 1",  // arithmetic on TEXT: lazy per-row error on both paths
	"WHERE b + 1 > 0",  // arithmetic on BOOL: lazy per-row error on both paths
	"WHERE nosuch > 1", // unknown column: refused before any row is read, on both paths
	// TEXT and BOOL columns against constants: one outcome table each.
	"WHERE b <> FALSE",
	"WHERE b < TRUE",
	"WHERE b >= FALSE",
	"WHERE b = NULL",
	"WHERE b IN (TRUE, NULL)",
	"WHERE b NOT IN (FALSE)",
	"WHERE c BETWEEN 'g1' AND 'g3'",
	"WHERE c > 'not-present'",
	"WHERE c IN ('g1', NULL)",
	"WHERE c NOT IN ('zzz', NULL)",
	// Across kind classes: ranked, not compared.
	"WHERE c = 1",
	"WHERE b < 'x'",
	// IN and BETWEEN over columns, BOOL operands under IS NULL and =, TEXT
	// as a boolean, TEXT and BOOL in arithmetic.
	"WHERE x IN (y, n, NULL)",
	"WHERE x BETWEEN n AND y",
	"WHERE (x > 1) IS NULL",
	"WHERE (x > 500) = (y > 50)",
	"WHERE c",
	"WHERE NOT c",
	"WHERE -c > 1",
	"WHERE b + 1 > 1",
	// Which operand decides: a failing one wins over a NULL one beside it.
	"WHERE x / n + c > 0",
	"WHERE b + 1 = c",
	"WHERE (x > 1) = (1 / n > 0)",
	// A constant child against a column item or bound: two constants meet.
	"WHERE 'g2' IN (c, 'g2')",
	"WHERE 'g2' BETWEEN c AND 'g4'",
	"WHERE TRUE IN (b, FALSE)",
	// Column-free subtrees under a parent that reads a column: the compiler
	// evaluates each once, and two numeric constants meet in one comparison.
	"WHERE 0 BETWEEN 0 AND x",
	"WHERE 0 IN (0, x)",
	"WHERE x + -(2 * 3) > 0",
	"WHERE x > 1 + 1",
	"WHERE x / (1 - 1) > 0",
	"WHERE NOT (1 = 1) OR x > 3",
}

// diffShapes are query templates; %s receives the WHERE clause.
var diffShapes = []string{
	"SELECT * FROM t %s",
	"SELECT c, x, y FROM t %s ORDER BY x DESC, c LIMIT 7",
	"SELECT DISTINCT c, b FROM t %s",
	"SELECT c, WEIGHT FROM t %s LIMIT 9",
	"SELECT COUNT(*), SUM(x), AVG(y), MIN(x), MAX(y) FROM t %s",
	"SELECT COUNT(n), MIN(c), MAX(c), MIN(b), MAX(b) FROM t %s",
	"SELECT SUM(WEIGHT), MIN(WEIGHT), MAX(WEIGHT), COUNT(WEIGHT) FROM t %s",
	"SELECT c, COUNT(*), AVG(y) FROM t %s GROUP BY c",
	"SELECT c, COUNT(*), SUM(x), AVG(y) FROM t %s GROUP BY c", // plain INT SUM per group
	"SELECT c, b, COUNT(*) AS cnt, SUM(WEIGHT), MIN(n) FROM t %s GROUP BY c, b ORDER BY cnt DESC, c LIMIT 5",
	"SELECT n, COUNT(n) AS cnt, SUM(y) FROM t %s GROUP BY n HAVING cnt > 2",
	"SELECT y, COUNT(*) FROM t %s GROUP BY y",
	"SELECT x, SUM(b), AVG(b) FROM t %s GROUP BY x ORDER BY x LIMIT 11",
	"SELECT c, n, b, COUNT(*) FROM t %s GROUP BY c, n, b",
	"SELECT b, MIN(y), MAX(n) FROM t %s GROUP BY b ORDER BY b DESC",
	"SELECT c FROM t %s GROUP BY c",
	"SELECT AVG(c) FROM t %s", // SUM/AVG over TEXT: lazy error, row path on both sides
	"SELECT c, COUNT(*) FROM t %s GROUP BY c HAVING c > 'g2'",
	"SELECT COUNT(*), SUM(y) FROM t %s GROUP BY c", // GROUP BY key not projected
	// Columnar ORDER BY / top-K: every kind as a key, ties, DESC, NULL
	// ordering, LIMIT 0 / 1 / oversized, and computed-item fallbacks.
	"SELECT x, y FROM t %s ORDER BY y LIMIT 10",
	"SELECT * FROM t %s ORDER BY y DESC, x LIMIT 3",
	"SELECT c, x FROM t %s ORDER BY c, x DESC",
	"SELECT x FROM t %s ORDER BY x LIMIT 0",
	"SELECT x FROM t %s ORDER BY x LIMIT 1",
	"SELECT n, b FROM t %s ORDER BY n DESC, b LIMIT 1000000",
	"SELECT c, WEIGHT FROM t %s ORDER BY WEIGHT DESC, c LIMIT 6",
	"SELECT b, c FROM t %s ORDER BY b, c DESC LIMIT 8",
	"SELECT x AS a, y AS a FROM t %s ORDER BY a LIMIT 5", // duplicate output name: first wins
	"SELECT x + 1 AS z, y FROM t %s ORDER BY z LIMIT 5",  // computed item: materialized sort
	"SELECT x, y FROM t %s ORDER BY x + 1 LIMIT 5",       // expression key: generic fallback
	"SELECT x FROM t %s ORDER BY nosuch",                 // unresolvable key: same lazy error
	"SELECT * FROM t %s LIMIT 2",
	// Columnar DISTINCT (densified) and its fallbacks.
	"SELECT DISTINCT c FROM t %s ORDER BY c DESC LIMIT 4",
	"SELECT DISTINCT n, b FROM t %s",
	"SELECT DISTINCT y FROM t %s ORDER BY y LIMIT 1000000",
	"SELECT DISTINCT * FROM t %s ORDER BY x LIMIT 7",
	"SELECT DISTINCT c, n FROM t %s ORDER BY c, n DESC LIMIT 50",
	"SELECT DISTINCT c, WEIGHT FROM t %s ORDER BY c LIMIT 5", // WEIGHT item: dedup fallback
	"SELECT DISTINCT x %% 3 AS r FROM t %s ORDER BY r",       // computed item: dedup fallback
	// Aggregate ORDER BY + LIMIT rides the generic top-K heap.
	"SELECT y, COUNT(*) AS cnt FROM t %s GROUP BY y ORDER BY cnt DESC, y LIMIT 4",
	"SELECT x, AVG(y) AS m FROM t %s GROUP BY x ORDER BY m LIMIT 6",
	// Arithmetic aggregate inputs on the vectorized path.
	"SELECT SUM(x + y) FROM t %s",
	"SELECT c, SUM(x * 2), AVG(y / 2), MIN(x - n), MAX(x %% 7) FROM t %s GROUP BY c",
	"SELECT COUNT(y * 2), SUM(WEIGHT + 1) FROM t %s",
	"SELECT SUM(x / n) FROM t %s", // division by zero in the aggregate input
	"SELECT c, MIN(x + NULL) FROM t %s GROUP BY c",
}

// sweepWorkers is the Workers grid every differential check runs the
// vectorized path under: the serial scan and three morsel-parallel pool
// sizes. Byte-identity across the sweep is the morsel-merge contract.
var sweepWorkers = []int{1, 2, 4, 8}

// sweepShards is the Shards grid layered on top: unsharded, and two
// scatter-gather partitionings. At Shards 1 every answer must be
// byte-identical to the row engine; at Shards > 1 the contract weakens for
// float aggregates only (partial-state merges reassociate addition), so
// those cells check bit-identity against a fresh single-worker reference at
// the same shard count, error-message identity against the row engine, and
// numeric closeness of the result cells.
var sweepShards = []int{1, 2, 4}

// resultsClose compares two results cell by cell: columns, row count, row
// order, kinds, and non-float cells must match exactly; float cells may
// differ by a relative 1e-9 (the reassociation allowance).
func resultsClose(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			va, vb := ra[j], rb[j]
			if va.Kind() != vb.Kind() {
				return false
			}
			if va.Kind() == value.KindFloat {
				x, y := va.AsFloat(), vb.AsFloat()
				if x == y || (math.IsNaN(x) && math.IsNaN(y)) {
					continue
				}
				if math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
					continue
				}
				return false
			}
			if !value.Equal(va, vb) {
				return false
			}
		}
	}
	return true
}

// runBoth executes sel on the row path and on the vectorized path at every
// swept (workers × shards) cell. Shards 1 cells must be byte-identical to
// the row answer; Shards > 1 cells must be byte-identical to each other
// (across Workers and across runs — the reference is a fresh execution) and
// close to the row answer per resultsClose, with identical error outcomes.
func runBoth(t *testing.T, tbl *table.Table, src string, opts Options) {
	t.Helper()
	sel, err := sql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	rowOpts := opts
	rowOpts.ForceRow = true
	rres, rerr := Run(tbl, sel, rowOpts)
	for _, s := range sweepShards {
		refRes, refErr := rres, rerr
		if s > 1 {
			shardOpts := opts
			shardOpts.ForceRow = false
			shardOpts.Workers = 1
			shardOpts.Shards = s
			refRes, refErr = Run(tbl, sel, shardOpts)
			switch {
			case (rerr == nil) != (refErr == nil):
				t.Errorf("%q: one path errored\n  row: %v\n  vec(%d shards): %v", src, rerr, s, refErr)
				continue
			case rerr != nil:
				if rerr.Error() != refErr.Error() {
					t.Errorf("%q: error mismatch\n  row: %v\n  vec(%d shards): %v", src, rerr, s, refErr)
					continue
				}
			case !resultsClose(rres, refRes):
				t.Errorf("%q: sharded answer diverged beyond float reassociation\n--- row ---\n%s\n--- vec (%d shards) ---\n%s",
					src, rres, s, refRes)
				continue
			}
		}
		for _, w := range sweepWorkers {
			vecOpts := opts
			vecOpts.ForceRow = false
			vecOpts.Workers = w
			vecOpts.Shards = s
			vres, verr := Run(tbl, sel, vecOpts)
			switch {
			case refErr != nil && verr != nil:
				if refErr.Error() != verr.Error() {
					t.Errorf("%q: error mismatch\n  ref: %v\n  vec(%d workers, %d shards): %v", src, refErr, w, s, verr)
				}
			case refErr != nil || verr != nil:
				t.Errorf("%q: one path errored\n  ref: %v\n  vec(%d workers, %d shards): %v", src, refErr, w, s, verr)
			default:
				if rs, vs := refRes.String(), vres.String(); rs != vs {
					t.Errorf("%q: output mismatch\n--- ref ---\n%s\n--- vec (%d workers, %d shards) ---\n%s", src, rs, w, s, vs)
				}
			}
		}
	}
}

// TestRowVsVectorGrid is the differential harness: every WHERE × shape ×
// weighting combination must be byte-identical across the two executors.
// The table sizes double as the mandatory sharding cells: 0 rows (every
// shard empty), 1 row (row count not divisible by any swept S > 1, all but
// one shard empty), 130 rows (not divisible by 4, and under the 64-row-
// aligned bounds S=4 leaves a trailing shard empty), and 500 rows (spans
// several 64-row blocks with a partial tail).
func TestRowVsVectorGrid(t *testing.T) {
	tables := []*table.Table{
		diffTable(t, 0, 1),
		diffTable(t, 1, 2),
		diffTable(t, 500, 3),
		diffTable(t, 130, 4),
	}
	var override []float64
	{
		rng := rand.New(rand.NewSource(9))
		override = make([]float64, 500)
		for i := range override {
			override[i] = rng.Float64() * 3
		}
	}
	for ti, tbl := range tables {
		for _, shape := range diffShapes {
			for _, where := range diffWheres {
				src := fmt.Sprintf(shape, where)
				runBoth(t, tbl, src, Options{Weighted: true})
				runBoth(t, tbl, src, Options{Weighted: false})
				if ti == 2 {
					runBoth(t, tbl, src, Options{Weighted: true, WeightOverride: override})
				}
			}
		}
	}
}

// TestRowVsVectorTextColumns compares two TEXT columns on a table of their
// own: strings shared between the columns and strings only one holds, so
// that equal codes, unequal codes and both orders meet, with NULLs in each.
func TestRowVsVectorTextColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := table.New("t", schema.MustNew(
		schema.Attribute{Name: "c", Kind: value.KindText},
		schema.Attribute{Name: "d", Kind: value.KindText},
		schema.Attribute{Name: "x", Kind: value.KindInt},
	))
	text := func(prefix string) value.Value {
		if rng.Intn(8) == 0 {
			return value.Null()
		}
		return value.Text(fmt.Sprintf("%s%d", prefix, rng.Intn(4)))
	}
	for i := 0; i < 300; i++ {
		row := []value.Value{text("g"), text([]string{"g", "h", "a"}[rng.Intn(3)]), value.Int(int64(i))}
		if err := tbl.AppendWeighted(row, float64(rng.Intn(4))/2); err != nil {
			t.Fatal(err)
		}
	}
	for _, where := range []string{"c = d", "c <> d", "c < d", "d >= c", "NOT (c = d) AND x > 100"} {
		for _, shape := range []string{
			"SELECT * FROM t WHERE %s",
			"SELECT c, COUNT(*), SUM(x) FROM t WHERE %s GROUP BY c",
		} {
			runBoth(t, tbl, fmt.Sprintf(shape, where), Options{Weighted: true})
		}
	}
}

// nanTable is diffTable with NaNs (the canonical one and x86's negative
// one), -0 and +0 mixed into the float column: the values whose identity
// and order value.Compare, HashKey and the kernels must agree on (NaN
// equals NaN and sorts above every number, -0 is 0). It stresses the sort
// words, the heap top-K, NaN and ±0 group identity and IN-list membership.
func nanTable(tb testing.TB, n int, seed int64) *table.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	t := table.New("t", diffSchema)
	for i := 0; i < n; i++ {
		row := make([]value.Value, 5)
		row[0] = value.Text(fmt.Sprintf("g%d", rng.Intn(4)))
		row[1] = value.Int(int64(rng.Intn(20) - 10))
		switch rng.Intn(7) {
		case 0:
			row[2] = value.Float(math.NaN())
		case 1:
			row[2] = value.Null()
		case 2:
			row[2] = value.Float(math.Float64frombits(0xfff8000000000000))
		case 3:
			row[2] = value.Float(math.Copysign(0, -1))
		default:
			row[2] = value.Float(float64(rng.Intn(16)) / 4)
		}
		row[3] = value.Bool(rng.Intn(2) == 0)
		row[4] = value.Int(int64(rng.Intn(3)))
		if err := t.AppendWeighted(row, float64(rng.Intn(4))/2); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// TestRowVsVectorNaN runs the sort/distinct/arith shapes over a table whose
// float column contains NaNs and ±0 (and, separately, a NaN weight
// override).
func TestRowVsVectorNaN(t *testing.T) {
	tbl := nanTable(t, 300, 11)
	shapes := []string{
		"SELECT x, y FROM t %s ORDER BY y LIMIT 10",
		"SELECT * FROM t %s ORDER BY y DESC, x LIMIT 5",
		"SELECT y FROM t %s ORDER BY y",
		"SELECT DISTINCT y FROM t %s",
		"SELECT DISTINCT y FROM t %s ORDER BY y LIMIT 3",
		"SELECT y, COUNT(*) FROM t %s GROUP BY y ORDER BY y LIMIT 7",
		"SELECT c, AVG(y) AS m FROM t %s GROUP BY c ORDER BY m LIMIT 2", // NaN aggregate keys on the generic top-K
		"SELECT SUM(y * 2), MIN(y + 1) FROM t %s",
		"SELECT c, WEIGHT FROM t %s ORDER BY WEIGHT, c LIMIT 4",
	}
	wheres := []string{
		"", "WHERE y = y", "WHERE y * 2 > 1", "WHERE x % 3 = 0",
		// NaN membership: a NaN child matches a NaN item only, -0 matches 0.
		"WHERE y IN (1.5, 2)",
		"WHERE y IN (0, 2)",
		"WHERE y = 0", "WHERE y < 0", "WHERE y > 3", "WHERE y <> 1",
		"WHERE y NOT IN (1.5, 2)",
		"WHERE y * 1 IN (1.5, 2)",
		"WHERE y IN (1.5, NULL)",
		"WHERE y IN ('a', TRUE)", // no numeric item: NaN must NOT match
		// A NaN list item (Inf - Inf folds to NaN) matches the NaN children
		// and no INT.
		"WHERE y IN (2, 1e308 * 2 - 1e308 * 2)",
		"WHERE x IN (1e308 * 2 - 1e308 * 2)",
		"WHERE x * 1 IN (7, 1e308 * 2 - 1e308 * 2)",
		"WHERE y BETWEEN 1e308 * 2 - 1e308 * 2 AND 5",
	}
	nanOverride := make([]float64, 300)
	for i := range nanOverride {
		nanOverride[i] = float64(i%5) / 2
		if i%17 == 0 {
			nanOverride[i] = math.NaN()
		}
	}
	for _, shape := range shapes {
		for _, where := range wheres {
			src := fmt.Sprintf(shape, where)
			runBoth(t, tbl, src, Options{Weighted: true})
			runBoth(t, tbl, src, Options{Weighted: true, WeightOverride: nanOverride})
		}
	}
}

// FuzzRowVsVector feeds arbitrary SQL through both executors, over
// diffTable and over nanTable (so NaN and ±0 are in its value pool); any
// accepted SELECT must produce identical outcomes. Seeded from the grid
// plus the parser fuzz corpus style of inputs.
func FuzzRowVsVector(f *testing.F) {
	for _, shape := range diffShapes {
		for _, where := range diffWheres[:8] {
			f.Add(fmt.Sprintf(shape, where))
		}
	}
	f.Add("SELECT OPEN c, COUNT(*) FROM t GROUP BY c")
	f.Add("SELECT x FROM t WHERE x IN (1, 'one', TRUE, NULL)")
	f.Add("SELECT MAX(c) FROM t WHERE c BETWEEN 'a' AND 'z' GROUP BY b")
	f.Add("SELECT DISTINCT c, b FROM t WHERE x % 3 = 1 ORDER BY c DESC, b LIMIT 4")
	f.Add("SELECT x, y FROM t WHERE x * 2 > y + 1 ORDER BY y DESC, x LIMIT 7")
	f.Add("SELECT SUM(x / n), MIN(x % 7) FROM t GROUP BY b ORDER BY MIN(x % 7) LIMIT 2")
	// Shapes with per-row operand forms inside the pipeline, and the
	// interpreter's first-error order between a WHERE and the items.
	f.Add("SELECT b, COUNT(x > 3), SUM(x / n) FROM t GROUP BY b")
	f.Add("SELECT c, MAX(c = 'g1'), MIN(x > y) FROM t GROUP BY c")
	f.Add("SELECT SUM(c) FROM t WHERE x > 400")
	f.Add("SELECT y / x, c FROM t WHERE x / n > -1000")
	f.Add("SELECT x + c FROM t WHERE n <> 0 OR c + 1 > 0")
	f.Add("SELECT COUNT(y / x > 0), SUM(c) FROM t WHERE x / n > 0 OR c + 1 > 0")
	// General IN and BETWEEN, IS NULL and comparisons over BOOL operands,
	// TEXT as a boolean, arithmetic and negation over BOOL and TEXT, BOOL
	// aggregate inputs and computed items.
	for _, src := range motivationSelects {
		f.Add(src)
	}
	tables := []*table.Table{diffTable(f, 200, 7), nanTable(f, 200, 7)}
	f.Fuzz(func(t *testing.T, src string) {
		sel, err := sql.ParseQuery(src)
		if err != nil {
			return
		}
		for _, tbl := range tables {
			rres, rerr := Run(tbl, sel, Options{Weighted: true, ForceRow: true})
			for _, s := range sweepShards {
				refRes, refErr := rres, rerr
				if s > 1 {
					refRes, refErr = Run(tbl, sel, Options{Weighted: true, Workers: 1, Shards: s})
					switch {
					case (rerr == nil) != (refErr == nil):
						t.Fatalf("%q: one path errored\n  row: %v\n  vec(%d shards): %v", src, rerr, s, refErr)
					case rerr != nil:
						if rerr.Error() != refErr.Error() {
							t.Fatalf("%q: error mismatch\n  row: %v\n  vec(%d shards): %v", src, rerr, s, refErr)
						}
					case !resultsClose(rres, refRes):
						t.Fatalf("%q: sharded answer diverged beyond float reassociation\n--- row ---\n%s\n--- vec (%d shards) ---\n%s",
							src, rres, s, refRes)
					}
				}
				for _, w := range sweepWorkers {
					vres, verr := Run(tbl, sel, Options{Weighted: true, Workers: w, Shards: s})
					switch {
					case refErr != nil && verr != nil:
						if refErr.Error() != verr.Error() {
							t.Fatalf("%q: error mismatch\n  ref: %v\n  vec(%d workers, %d shards): %v", src, refErr, w, s, verr)
						}
					case refErr != nil || verr != nil:
						t.Fatalf("%q: one path errored\n  ref: %v\n  vec(%d workers, %d shards): %v", src, refErr, w, s, verr)
					default:
						if rs, vs := refRes.String(), vres.String(); rs != vs {
							t.Fatalf("%q: output mismatch\n--- ref ---\n%s\n--- vec (%d workers, %d shards) ---\n%s", src, rs, w, s, vs)
						}
					}
				}
				checkFleetPartials(t, src, tbl, sel, s)
			}
		}
	})
}

// checkFleetPartials is the fleet half of the differential oracle: every
// aggregate shape, scattered as PartialAggregate(i of shards) for every i
// and gathered, must reproduce RunSnapshotContext at Shards: shards bit for
// bit — or its error, which the first failing partial in shard order
// carries.
func checkFleetPartials(t *testing.T, src string, tbl *table.Table, sel *sql.Select, shards int) {
	t.Helper()
	if !sel.IsAggregate() {
		return
	}
	ctx := context.Background()
	snap := tbl.Snapshot()
	opts := Options{Weighted: true, Workers: 2, Shards: shards}
	want, wantErr := RunSnapshotContext(ctx, snap, sel, opts)
	partials := make([]*ShardPartial, shards)
	for i := range partials {
		p, err := PartialAggregate(ctx, snap, sel, opts, i, shards)
		switch {
		case err != nil:
			if wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%q: partial %d of %d errored %v, Shards:%d answer %v", src, i, shards, err, shards, wantErr)
			}
			return
		}
		partials[i] = p
	}
	got, err := GatherPartials(ctx, sel, partials)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%q: gather of %d partials errored %v, Shards:%d answer %v", src, shards, err, shards, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("%q: gather error %v, Shards:%d error %v", src, err, shards, wantErr)
		}
	case !bitIdentical(want, got):
		t.Fatalf("%q: %d gathered partials differ from Shards:%d\n--- Shards ---\n%s\n--- gathered ---\n%s", src, shards, shards, want, got)
	}
}

// bitIdentical compares two results exactly: columns, kinds, float bits.
func bitIdentical(a, b *Result) bool {
	if fmt.Sprint(a.Columns) != fmt.Sprint(b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		for j, x := range a.Rows[i] {
			y := b.Rows[i][j]
			if x.Kind() != y.Kind() {
				return false
			}
			if x.Kind() == value.KindFloat {
				if math.Float64bits(x.AsFloat()) != math.Float64bits(y.AsFloat()) {
					return false
				}
			} else if !value.Equal(x, y) {
				return false
			}
		}
	}
	return true
}

// firstErrorTable is 300 rows where the WHERE shapes of
// TestFirstErrorRuleGrid fail at row 200 (n = 0 there, and c is TEXT) and
// the items fail at row e: y = 0 and c is TEXT there. c is NULL elsewhere,
// and names its row, so a SUM over it says which row failed.
func firstErrorTable(tb testing.TB, e int) *table.Table {
	tb.Helper()
	t := table.New("t", diffSchema)
	for i := 0; i < 300; i++ {
		c, y, n := value.Null(), value.Float(1), value.Int(1)
		if i == 200 || i == e {
			c = value.Text(fmt.Sprintf("s%d", i))
		}
		if i == e {
			y = value.Float(0)
		}
		if i == 200 {
			n = value.Int(0)
		}
		if err := t.AppendWeighted([]value.Value{c, value.Int(int64(i + 1)), y, value.Bool(i%3 == 0), n}, 1.5); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// firstErrorWheres × firstErrorShapes is TestFirstErrorRuleGrid's grid over
// firstErrorTable; every WHERE fails at row 200, except the last, whose
// constant zero divisor fails it at every row.
var (
	firstErrorWheres = []string{
		"WHERE x / n > 0",           // kernel: division by zero at row 200
		"WHERE n <> 0 OR c + 1 > 0", // TEXT arithmetic at row 200
		// Interpreter order: IN stops at its first match, so row 0 (x = 1)
		// never evaluates y / n, and row 200 (n = 0) fails in it; BETWEEN
		// evaluates all three operands before it looks for NULL; IS NULL
		// passes its child's failure on.
		"WHERE x IN (1, y / n)",
		"WHERE x NOT BETWEEN n AND y / n",
		"WHERE (x / n > 0) IS NULL",
		"WHERE x / (1 - 1) > 0",
	}
	firstErrorShapes = []string{
		"SELECT x, x / y FROM t %s",
		"SELECT c + 1 AS z, x FROM t %s",
		"SELECT x / y, c + 1 FROM t %s",
		"SELECT c + 1, x / y FROM t %s",
		"SELECT DISTINCT x / y AS q FROM t %s ORDER BY q LIMIT 3",
		"SELECT x FROM t %s ORDER BY x DESC LIMIT 3",
		"SELECT SUM(x / y) FROM t %s",
		"SELECT COUNT(x / y > 0), SUM(c) FROM t %s",
		"SELECT SUM(c), MAX(x / y) FROM t %s",
		"SELECT b, MAX(x / y), SUM(c) FROM t %s GROUP BY b",
		"SELECT b, COUNT(c + 1) FROM t %s GROUP BY b",
		"SELECT c + 1, x / n FROM t %s", // two different errors at row 200, beside the WHERE's
	}
)

// TestFirstErrorRuleGrid pins the interpreter's error order on the
// pipeline: the WHERE fails at row 200, through a kernel (division by zero)
// or through TEXT arithmetic behind an OR, beside a computed
// item or an aggregate input that fails before row 200 — its error wins —
// or after it, where the WHERE's error wins. Items failing at one row fail
// in select-list order. runBoth compares every error text with the row
// interpreter at every Workers × Shards cell; checkFleetPartials holds the
// aggregate shapes' fleet partials to the same error, or answer.
func TestFirstErrorRuleGrid(t *testing.T) {
	for _, e := range []int{40, 150, 250, 290} {
		tbl := firstErrorTable(t, e)
		for _, shape := range firstErrorShapes {
			for _, where := range firstErrorWheres {
				src := fmt.Sprintf(shape, where)
				runBoth(t, tbl, src, Options{Weighted: true})
				sel, err := sql.ParseQuery(src)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range sweepShards {
					checkFleetPartials(t, src, tbl, sel, s)
				}
			}
		}
		// With no WHERE, two different errors meet at row 200 (c is TEXT
		// and n is 0 there) unless row e fails first: the first failing
		// item in select-list order names it.
		for _, src := range []string{
			"SELECT c + 1, x / n FROM t",
			"SELECT x / n, c + 1 FROM t",
			"SELECT MAX(x / n), SUM(c) FROM t",
			"SELECT b, SUM(c), COUNT(x / n) FROM t GROUP BY b",
		} {
			runBoth(t, tbl, src, Options{Weighted: true})
			sel, err := sql.ParseQuery(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range sweepShards {
				checkFleetPartials(t, src, tbl, sel, s)
			}
		}
	}
}

// TestAggErrOrderWithInterpretedFilter pins the error-ordering rule for
// vectorized aggregate inputs: when the WHERE runs interpreted (here: TEXT
// arithmetic in one OR arm) and the aggregate input can divide by zero, the
// error at the earlier row surfaces — row 0 passes WHERE via short-circuit
// and its aggregate input divides by zero, while row 1's WHERE raises the
// TEXT error. The selection stops at row 1 and keeps row 0, whose input's
// error then wins.
func TestAggErrOrderWithInterpretedFilter(t *testing.T) {
	tbl := table.New("t", diffSchema)
	rows := [][]value.Value{
		// c, x, y, b, n — row 0: WHERE left arm 20/5 > 2 short-circuits TRUE,
		// SUM(x / y) hits 20/0.
		{value.Text("g"), value.Int(20), value.Float(0), value.Bool(true), value.Int(5)},
		// row 1: left arm 1/1 > 2 is FALSE, right arm c + 1 errors on TEXT.
		{value.Text("g"), value.Int(1), value.Float(1), value.Bool(true), value.Int(1)},
	}
	for _, r := range rows {
		if err := tbl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	runBoth(t, tbl, "SELECT SUM(x / y) FROM t WHERE x / n > 2 OR c + 1 > 0", Options{Weighted: true})
	// Same shape with a kernel-compilable filter: both errors are
	// division by zero.
	runBoth(t, tbl, "SELECT SUM(x / y) FROM t WHERE x / n > 2 OR x > 0", Options{Weighted: true})
}

// TestInExactIntMembership pins value.Equal's exact INT-vs-INT comparison
// on the vectorized IN and comparison kernels: 2^53 and 2^53+1 collapse to
// one float64, so a float-coded membership set or an INT-vs-INT comparison
// through float64 would confuse them. INT against FLOAT rounds through
// float64 on both paths (2^53+1.0 parses as 2^53).
func TestInExactIntMembership(t *testing.T) {
	tbl := table.New("t", diffSchema)
	big := int64(1) << 53
	for _, x := range []int64{big, big + 1, 7} {
		if err := tbl.Append([]value.Value{value.Text("g"), value.Int(x), value.Float(0), value.Bool(true), value.Null()}); err != nil {
			t.Fatal(err)
		}
	}
	srcs := []string{
		fmt.Sprintf("SELECT COUNT(*) FROM t WHERE x IN (%d)", big+1),
		fmt.Sprintf("SELECT COUNT(*) FROM t WHERE x IN (%d, 7)", big),
		fmt.Sprintf("SELECT COUNT(*) FROM t WHERE x NOT IN (%d)", big+1),
		fmt.Sprintf("SELECT COUNT(*) FROM t WHERE x IN (%d.0)", 8),
	}
	for _, lit := range []string{fmt.Sprint(big), fmt.Sprint(big + 1), fmt.Sprintf("%d.0", big), fmt.Sprintf("%d.0", big+1)} {
		for _, where := range []string{"x = %s", "x < %s", "x >= %s", "%s > x", "x BETWEEN %s AND %[1]s", "x BETWEEN 7 AND %s"} {
			srcs = append(srcs, "SELECT COUNT(*) FROM t WHERE "+fmt.Sprintf(where, lit))
		}
	}
	for _, src := range srcs {
		runBoth(t, tbl, src, Options{Weighted: true})
	}
}
