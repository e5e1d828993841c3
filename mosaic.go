// Package mosaic is a sample-based database system for open world query
// processing, reproducing the system of Orr et al., "Mosaic: A Sample-Based
// Database System for Open World Query Processing" (CIDR 2020).
//
// Mosaic treats samples as first-class citizens: users declare populations
// (sets of tuples that exist in the world but not in the database), ingest
// biased samples of them, attach ground-truth marginal metadata, and then
// query the populations directly. A visibility keyword after SELECT chooses
// how open the answer may be:
//
//   - CLOSED   — answer from the samples as stored (closed world).
//   - SEMI-OPEN — reweight the sample: inverse inclusion probability when
//     the sampling mechanism is known, Iterative Proportional Fitting
//     against the population marginals otherwise.
//   - OPEN     — additionally generate missing tuples with a
//     marginal-constrained sliced Wasserstein generator (M-SWG).
//
// # Concurrency and determinism
//
// A DB is safe for concurrent use: queries (Query, Scalar, EXPLAIN) run
// under a shared read lock, so any number of them proceed in parallel, while
// DDL/DML (Exec, Ingest, SetMechanism, AddMarginal) serializes behind a
// write lock and invalidates the derived caches (trained M-SWG models, IPF
// fits). Options.Workers additionally parallelizes inside one query: the
// columnar kernels partition every scan into fixed-size morsels processed by
// a pool of Workers goroutines, OPEN replicate generation fans across
// Workers goroutines, and M-SWG training uses Workers loss workers.
//
// Determinism guarantee: for a fixed Seed and statement stream, answers are
// bit-identical regardless of Workers. Morsel boundaries are a pure function
// of the row count, and per-morsel state (selection vectors, sorted runs)
// merges in morsel order — so the parallel scan reconstructs
// exactly the serial scan's result. Every OPEN replicate draws from an RNG
// stream derived only from (Seed, replicate index) — never from which
// goroutine runs it or in what order — and parallel loss reductions are
// statically partitioned. Workers trades only wall-clock time, never answer
// stability.
//
// Options.Shards adds in-process scatter-gather: CLOSED/SEMI-OPEN aggregate
// queries scatter over Shards contiguous range partitions and gather their
// mergeable partial states in shard order. Unlike Workers, Shards is part of
// the answer contract: the shard merge reassociates float addition, so
// answers are bit-identical across runs and Workers only for a fixed Shards
// value, and Shards 0/1 is byte-identical to the unsharded engine. OPEN
// queries always scan the unified view.
//
// # Quickstart
//
//	db := mosaic.Open(nil)
//	err := db.Exec(`
//	    CREATE GLOBAL POPULATION EuropeMigrants (country TEXT, email TEXT, age INT);
//	    CREATE SAMPLE YahooMigrants AS (SELECT * FROM EuropeMigrants WHERE email = 'Yahoo');
//	`)
//	// ... ingest rows, CREATE METADATA, then:
//	res, err := db.Query(`SELECT OPEN country, email, COUNT(*) FROM EuropeMigrants GROUP BY country, email`)
package mosaic

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"mosaic/internal/core"
	"mosaic/internal/exec"
	"mosaic/internal/ipf"
	"mosaic/internal/marginal"
	"mosaic/internal/mechanism"
	"mosaic/internal/sql"
	"mosaic/internal/swg"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Result is a materialized query answer: column names plus rows of Values.
type Result = exec.Result

// Value is one typed scalar in a result row.
type Value = value.Value

// Marginal is a 1- or 2-dimensional population histogram (metadata).
type Marginal = marginal.Marginal

// SWGConfig tunes the OPEN-query generator (see the paper's Sec 5).
type SWGConfig = swg.Config

// IPFOptions tunes SEMI-OPEN reweighting.
type IPFOptions = ipf.Options

// Mechanism is a sampling mechanism Pr_S(t) usable for known-mechanism
// reweighting.
type Mechanism = mechanism.Mechanism

// Uniform is the UNIFORM PERCENT mechanism.
type Uniform = mechanism.Uniform

// NoSQLMechanismError is SetMechanism's refusal of a mechanism whose type
// is not one of Mosaic's own (UNIFORM, STRATIFIED, BIASED): the SQL dialect
// has no spelling for it, so no dump, snapshot or replica could carry it.
type NoSQLMechanismError = mechanism.NoSQLError

// Options configures a DB; the zero value is the defaults. Its fields are
// documented on the engine's options, which it is:
//   - Seed drives all randomness (default 1): equal seeds and equal
//     statement streams give identical answers.
//   - OpenSamples is the number of generated samples averaged per OPEN
//     query (default 10, the paper's).
//   - GeneratedRows is the size of each generated sample (default: the
//     source sample's size).
//   - UnionSamples answers from the union of all schema-covering samples
//     (the paper's Sec 7 "Multiple Samples" extension).
//   - Workers bounds intra-query parallelism (default: every core; 1 is the
//     serial path). Answers are bit-identical for any Workers value.
//   - RowExec forces the row-at-a-time executor; answers are byte-identical.
//   - Shards range-partitions CLOSED and SEMI-OPEN aggregate scans into
//     this many slices merged in shard order (default 1, unsharded). It is
//     part of the answer contract: float aggregates may differ in low-order
//     bits between Shards values.
//   - StmtLogSize bounds the statement log behind follower deltas (default
//     1024; negative keeps none).
//   - IPF tunes the SEMI-OPEN fit.
//   - SWG is the base M-SWG configuration for OPEN queries.
type Options = core.Options

// DB is a Mosaic database instance. It is safe for concurrent use: queries
// share a read lock and run in parallel, DDL/DML takes the write lock and
// may interleave freely with queries from other goroutines (each statement
// is atomic; multi-statement scripts are not). Restore swaps in a freshly
// replayed engine atomically: in-flight queries finish against the state
// they started on.
type DB struct {
	opts   Options
	engine atomic.Pointer[core.Engine]
}

// Open creates an empty in-memory Mosaic database. A nil opts uses defaults.
func Open(opts *Options) *DB {
	db := &DB{}
	if opts != nil {
		db.opts = *opts
	}
	db.engine.Store(core.NewEngine(db.opts))
	return db
}

// eng returns the current engine. Queries and mutations that race a Restore
// use whichever engine was current when they started.
func (db *DB) eng() *core.Engine { return db.engine.Load() }

// Exec runs one or more semicolon-separated DDL/DML statements.
func (db *DB) Exec(script string) error {
	return db.ExecContext(context.Background(), script)
}

// ExecContext is Exec with a cancellation context: the script stops between
// statements once ctx expires (each statement is atomic; completed
// statements stay executed), and SELECTs inside the script honor ctx at
// every engine checkpoint.
func (db *DB) ExecContext(ctx context.Context, script string) error {
	_, err := db.eng().ExecScriptContext(ctx, script)
	return err
}

// Query runs a single SELECT and returns its result. Optional args bind `?`
// placeholders in the query, in order; a bound query answers byte-identically
// to the same query with the literals inlined.
func (db *DB) Query(query string, args ...any) (*Result, error) {
	return db.QueryContext(context.Background(), query, args...)
}

// QueryContext is Query with a cancellation context. A cancelled query
// returns ctx.Err() promptly — M-SWG training, OPEN replicate generation,
// IPF fitting, and executor scans all checkpoint the context — and leaves
// the database fully consistent: re-running the query returns the
// byte-identical uncancelled answer.
func (db *DB) QueryContext(ctx context.Context, query string, args ...any) (*Result, error) {
	sel, err := sql.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	bound, err := bindArgs(sel, args)
	if err != nil {
		return nil, err
	}
	return db.eng().QueryContext(ctx, bound)
}

// Run executes a script and returns the result of every statement (nil for
// DDL/DML), enabling mixed scripts like the paper's Sec 2 example.
func (db *DB) Run(script string) ([]*Result, error) {
	return db.RunContext(context.Background(), script)
}

// RunContext is Run with a cancellation context (see ExecContext for the
// mid-script semantics).
func (db *DB) RunContext(ctx context.Context, script string) ([]*Result, error) {
	return db.eng().ExecScriptContext(ctx, script)
}

// bindArgs coerces Go-native args to typed values and substitutes them for
// the statement's `?` placeholders.
func bindArgs(sel *sql.Select, args []any) (*sql.Select, error) {
	if len(args) == 0 && sel.NumParams == 0 {
		return sel, nil
	}
	vals := make([]value.Value, len(args))
	for i, a := range args {
		v, err := value.FromRaw(a)
		if err != nil {
			return nil, fmt.Errorf("mosaic: parameter %d: %v", i+1, err)
		}
		vals[i] = v
	}
	return sql.BindParams(sel, vals)
}

// Ingest appends Go-native rows ([]any per row, matching the relation
// schema) into a table or sample. It stops at the first row that fails,
// with an error that names it ("core: ingest S row 2: …"), and keeps the
// rows before it.
func (db *DB) Ingest(relation string, rows [][]any) error {
	return db.eng().Ingest(relation, rows)
}

// SetMechanism installs a sampling mechanism on a sample, enabling
// known-mechanism SEMI-OPEN reweighting. It executes the statement
// ALTER SAMPLE sample USING MECHANISM m.Name(), so dumps and replicas carry
// the mechanism. Only Mosaic's own mechanisms have that SQL form: a
// mechanism of any other type is refused with a *NoSQLMechanismError before
// anything changes.
func (db *DB) SetMechanism(sample string, m Mechanism) error {
	return db.eng().SetSampleMechanism(sample, m)
}

// AddMarginal attaches a programmatically built marginal to a population.
// The DB keeps m, which must not change afterwards.
func (db *DB) AddMarginal(population string, m *Marginal) error {
	return db.eng().AddMarginal(population, m)
}

// Scalar is a convenience for single-row single-column answers (e.g. global
// aggregates): it runs the query and returns the lone cell as float64.
// Optional args bind `?` placeholders.
func (db *DB) Scalar(query string, args ...any) (float64, error) {
	return db.ScalarContext(context.Background(), query, args...)
}

// ScalarContext is Scalar with a cancellation context.
func (db *DB) ScalarContext(ctx context.Context, query string, args ...any) (float64, error) {
	res, err := db.QueryContext(ctx, query, args...)
	if err != nil {
		return 0, err
	}
	return scalarCell(res)
}

// scalarCell extracts the lone cell of a 1×1 result as float64.
func scalarCell(res *Result) (float64, error) {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("mosaic: query returned %d rows × %d columns, want 1×1", len(res.Rows), len(res.Columns))
	}
	return res.Rows[0][0].Float64()
}

// Engine exposes the underlying engine for advanced use (experiment
// harnesses, tests). Most callers should not need it. The returned engine is
// a point-in-time handle: a later Restore swaps the DB to a new engine.
func (db *DB) Engine() *core.Engine { return db.eng() }

// Dump serializes the database as a Mosaic SQL script; executing it against
// an empty DB recreates the relations, rows, metadata, sample weights and
// mechanisms, so the restored DB dumps the same script again.
func (db *DB) Dump() (string, error) {
	return db.eng().DumpScript()
}

// Snapshot serializes the current database state as a self-contained Mosaic
// SQL script suitable for Restore. It is the persistence format of
// mosaic-serve: human-readable, append-only friendly, and replayable against
// any engine with the same Options.
func (db *DB) Snapshot() (string, error) {
	return db.eng().DumpScript()
}

// Restore replaces the database's entire state by replaying a Snapshot
// script against a fresh engine with the DB's original Options (so
// restored answers are bit-identical to the snapshotted instance's for the
// same statement stream). The replay runs statement by statement, lexing
// and parsing a fixed few batches of statements ahead of the one it
// applies, and the restored engine keeps no part of the script: its
// statement log starts empty at the generation the replay reached.
// On replay error the current state is untouched. Concurrent queries
// started before Restore finish against the old state.
func (db *DB) Restore(script string) error {
	fresh := core.NewEngine(db.opts)
	if err := fresh.Restore(script); err != nil {
		return fmt.Errorf("mosaic: restore: %w", err)
	}
	db.engine.Store(fresh)
	return nil
}

// SaveSnapshot atomically writes a Snapshot to path: the script lands in a
// temporary file in the same directory and is renamed into place, so a crash
// mid-write never corrupts the previous snapshot.
func (db *DB) SaveSnapshot(path string) error {
	script, err := db.Snapshot()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("mosaic: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.WriteString(script); err != nil {
		tmp.Close()
		return fmt.Errorf("mosaic: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("mosaic: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("mosaic: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("mosaic: snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot restores the database from a snapshot file written by
// SaveSnapshot (or any Mosaic SQL script). The file is read once, into one
// string sized from its length, which Restore then replays.
func (db *DB) LoadSnapshot(path string) error {
	script, err := readFileString(path)
	if err != nil {
		return fmt.Errorf("mosaic: snapshot: %w", err)
	}
	return db.Restore(script)
}

// readFileString is os.ReadFile into a string without the []byte → string
// copy.
func readFileString(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(int(fi.Size()))
	if _, err := io.Copy(&b, f); err != nil {
		return "", err
	}
	return b.String(), nil
}

// NewMarginal builds a 1- or 2-attribute marginal from (values..., count)
// rows of Go-native scalars, for AddMarginal.
func NewMarginal(name string, attrs []string, cells [][]any) (*Marginal, error) {
	m, err := marginal.New(name, attrs)
	if err != nil {
		return nil, err
	}
	for ri, c := range cells {
		if len(c) != len(attrs)+1 {
			return nil, fmt.Errorf("mosaic: marginal cell %d has %d entries, want %d values + count", ri, len(c), len(attrs))
		}
		vals := make([]Value, len(attrs))
		for i := 0; i < len(attrs); i++ {
			v, err := value.FromRaw(c[i])
			if err != nil {
				return nil, fmt.Errorf("mosaic: marginal cell %d: %v", ri, err)
			}
			vals[i] = v
		}
		cnt, err := value.FromRaw(c[len(attrs)])
		if err != nil {
			return nil, fmt.Errorf("mosaic: marginal cell %d: %v", ri, err)
		}
		f, err := cnt.Float64()
		if err != nil {
			return nil, fmt.Errorf("mosaic: marginal cell %d count: %v", ri, err)
		}
		if err := m.Add(vals, f); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Table gives read access to a stored relation's backing table (samples and
// auxiliary tables).
func (db *DB) Table(name string) (*table.Table, error) {
	if t, ok := db.eng().Catalog().Table(name); ok {
		return t, nil
	}
	if s, ok := db.eng().Catalog().Sample(name); ok {
		return s.Table, nil
	}
	return nil, fmt.Errorf("mosaic: no table or sample %q", name)
}
