// Package core is Mosaic's open-world engine: it owns the catalog, executes
// the Mosaic SQL dialect, and routes population queries through the three
// visibility paths of the paper — CLOSED (samples as-is), SEMI-OPEN
// (mechanism or IPF reweighting), and OPEN (M-SWG tuple generation).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"mosaic/internal/catalog"
	"mosaic/internal/exec"
	"mosaic/internal/expr"
	"mosaic/internal/ipf"
	"mosaic/internal/marginal"
	"mosaic/internal/mechanism"
	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/swg"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Options configures an Engine.
type Options struct {
	// Seed drives all engine randomness (model training, generation).
	// Default 1. Two engines with equal seeds and equal statement streams
	// give identical answers.
	Seed int64
	// OpenSamples is the number of generated samples averaged per OPEN query
	// (the paper generates 10, Sec 5.3). Default 10.
	OpenSamples int
	// GeneratedRows is the size of each generated sample; 0 means the size
	// of the source sample (the paper's protocol).
	GeneratedRows int
	// UnionSamples enables the Sec 7 "Multiple Samples" extension: instead
	// of answering from one optimal sample, all schema-covering samples of
	// the population are unioned and reweighted together.
	UnionSamples bool
	// Workers bounds the engine's intra-query parallelism: columnar kernels
	// run morsel-parallel across up to Workers goroutines, OPEN queries fan
	// their replicate generation across them, and M-SWG training uses Workers
	// loss workers unless SWG.Workers overrides it. Results are independent
	// of Workers — morsel states merge in scan order and each replicate draws
	// from an RNG stream derived only from (Seed, replicate index). 0 (the
	// default) means runtime.GOMAXPROCS(0), i.e. use every core; negative
	// values mean 1 (the true serial path). Restore's lex, parse and apply
	// pipeline is fixed at three goroutines, outside Workers.
	Workers int
	// RowExec forces the legacy row-at-a-time executor for every query,
	// bypassing the vectorized columnar path. Answers are byte-identical
	// either way — the differential harness and the exec benchmarks rely on
	// this switch; production engines leave it false.
	RowExec bool
	// Shards range-partitions every table scan into this many contiguous
	// slices and answers CLOSED/SEMI-OPEN aggregate queries by
	// scatter-gather: per-shard partial states merged in shard order. 1 (the
	// default) is byte-identical to the unsharded engine. For a fixed Shards
	// value answers are bit-identical across runs and Workers values; float
	// aggregates may differ in low-order bits between Shards values, so
	// Shards is part of the answer contract. OPEN queries always execute
	// against the unified view (generative models train on the full sample),
	// never sharded.
	Shards int
	// StmtLogSize bounds the per-generation statement log that backs
	// follower delta catch-up (GET /v1/snapshot/delta): the engine retains
	// an entry for each of the most recent StmtLogSize mutations — a
	// statement's SQL source, or a reference to the rows or the marginal a
	// COPY, an ingestion or AddMarginal stored, rendered as SQL when a delta
	// is served. A follower whose generation has fallen out of the window
	// re-bootstraps from a full snapshot. 0 (the default) means 1024;
	// negative disables retention entirely (every delta request forces a
	// full snapshot).
	StmtLogSize int
	// IPF tunes the SEMI-OPEN fit.
	IPF ipf.Options
	// SWG is the base M-SWG configuration for OPEN queries; the engine
	// derives a per-model seed from Seed.
	SWG swg.Config
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.OpenSamples <= 0 {
		o.OpenSamples = 10
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 0 {
		o.Workers = 1
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.StmtLogSize == 0 {
		o.StmtLogSize = 1024
	}
	if o.StmtLogSize < 0 {
		o.StmtLogSize = -1
	}
	return o
}

// Engine executes Mosaic statements. It is safe for concurrent use: SELECT
// and EXPLAIN run under a shared read lock, so any number of queries proceed
// in parallel, while DDL/DML statements take the exclusive write lock.
// Trained M-SWG models, IPF fits and inverse-probability weights are pure
// functions of (sample, mechanism, ordered marginals), so each is computed
// once — under a single-flight gate, to keep concurrent first queries from
// training the same model twice — and served read-only for as long as those
// inputs stay what they were (derived.go). No write evicts anything: a slot
// whose inputs changed is replaced by the next read that needs it.
type Engine struct {
	cat  *catalog.Catalog
	opts Options

	// mu serializes schema/data mutation (write side) against query
	// execution (read side).
	mu sync.RWMutex

	// gen counts DDL/DML generations: every mutation attempt advances it
	// (under the write lock), and prepared statements compare it to decide
	// whether their cached plan is still valid. Bumping on failed mutations
	// too costs only a spurious re-plan, never a stale one.
	gen atomic.Uint64

	// log is the bounded statement log paired with gen: every generation
	// bump appends the mutation's SQL source, or the rows or marginal it
	// stored, so followers can catch up by replaying the generation delta.
	// Guarded by mu — appends under the write lock, reads under the read
	// lock.
	log stmtLog

	// cacheMu guards the cache maps themselves; the entries carry their own
	// single-flight gates so cacheMu is never held across training or
	// fitting.
	cacheMu sync.Mutex
	models  map[string]*slot[*swg.Model]      // key: sample|population
	ipfFits map[string]*slot[ipfFit]          // key: scope-prefixed sample|population
	unions  map[string]*slot[*catalog.Sample] // key: union(members)|population (UnionSamples)

	cacheStats modelCacheCounters

	// shardScans/shardRows count, per shard index, how many partial scans
	// the scatter-gather executor ran and how many rows they covered —
	// /statsz's per-shard counters. Fixed-size (Options.Shards entries), so
	// concurrent queries update them lock-free.
	shardScans []atomic.Int64
	shardRows  []atomic.Int64
}

// ipfFit is the cached outcome of a SEMI-OPEN reweighting for one
// sample/population pair: the whole-sample weight vector for global-scope
// IPF fits and for known-mechanism inverse-probability weights, or the fitted
// view-restricted sub-table for query-scope fits. All are served read-only
// (exec never mutates weight overrides or scanned tables).
type ipfFit struct {
	weights []float64
	sub     *table.Table
}

// sfEntry is an interruptible single-flight cache slot. One computing caller
// runs the expensive work; concurrent callers wait on ready OR their own
// context — so a waiter with a short deadline is never held hostage by a
// slower leader. Completed outcomes (including non-context errors, which are
// pure functions of the slot's inputs) stay cached for as long as the slot
// does, i.e. until a lookup finds its inputs changed and replaces it (see
// slot); a cancelled attempt leaves the slot empty so the next caller
// recomputes from scratch.
type sfEntry[T any] struct {
	val   T
	err   error
	done  bool
	doing bool
	ready chan struct{} // non-nil while doing; closed when the attempt ends
}

// sfDo resolves one single-flight slot. lookup is called under mu and must
// return the slot to use (creating it if absent — and re-reading the map
// every time, so a slot replaced meanwhile is not resurrected). compute
// runs without mu held and must honor ctx; a compute outcome that IS a
// context error (checked with errors.Is, so wrapped cancellations count) is
// returned to the caller but never cached.
func sfDo[T any](ctx context.Context, mu *sync.Mutex, lookup func() *sfEntry[T], compute func() (T, error)) (T, error) {
	var zero T
	for {
		mu.Lock()
		ent := lookup()
		if ent.done {
			v, err := ent.val, ent.err
			mu.Unlock()
			return v, err
		}
		if !ent.doing {
			ent.doing = true
			ent.ready = make(chan struct{})
			mu.Unlock()
			var v T
			var err error
			completed := false
			func() {
				defer func() {
					if completed {
						return
					}
					// compute panicked: release the slot so later callers
					// retry instead of blocking forever on ready; the panic
					// keeps unwinding past sfDo.
					mu.Lock()
					ent.doing = false
					close(ent.ready)
					ent.ready = nil
					mu.Unlock()
				}()
				v, err = compute()
				completed = true
			}()
			mu.Lock()
			ent.doing = false
			close(ent.ready)
			ent.ready = nil
			if isCtxErr(err) {
				mu.Unlock()
				return zero, err
			}
			ent.val, ent.err, ent.done = v, err, true
			mu.Unlock()
			return v, err
		}
		ready := ent.ready
		mu.Unlock()
		select {
		case <-ready:
			// The leader finished (or was cancelled); re-resolve the slot.
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// isCtxErr reports whether err is a cancellation outcome (context.Canceled
// or context.DeadlineExceeded, possibly wrapped).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// NewEngine creates an engine with an empty catalog.
func NewEngine(opts Options) *Engine {
	e := &Engine{
		cat:     catalog.New(),
		opts:    opts.withDefaults(),
		models:  make(map[string]*slot[*swg.Model]),
		ipfFits: make(map[string]*slot[ipfFit]),
		unions:  make(map[string]*slot[*catalog.Sample]),
	}
	e.shardScans = make([]atomic.Int64, e.opts.Shards)
	e.shardRows = make([]atomic.Int64, e.opts.Shards)
	e.log.cap = e.opts.StmtLogSize
	return e
}

// Shards returns the engine's shard count (≥ 1).
func (e *Engine) Shards() int { return e.opts.Shards }

// ShardScans returns, per shard index, how many scatter-gather partial scans
// have executed since the engine started. All zeros when Shards is 1 (the
// sharded path never engages).
func (e *Engine) ShardScans() []int64 {
	out := make([]int64, len(e.shardScans))
	for i := range e.shardScans {
		out[i] = e.shardScans[i].Load()
	}
	return out
}

// ShardRows returns, per shard index, how many rows those partial scans
// covered.
func (e *Engine) ShardRows() []int64 {
	out := make([]int64, len(e.shardRows))
	for i := range e.shardRows {
		out[i] = e.shardRows[i].Load()
	}
	return out
}

// recordShardScan is the exec.Options.ShardScan observability hook.
func (e *Engine) recordShardScan(shard, rows int) {
	if shard >= 0 && shard < len(e.shardScans) {
		e.shardScans[shard].Add(1)
		e.shardRows[shard].Add(int64(rows))
	}
}

// Catalog exposes the engine's catalog (for ingestion APIs and tests).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Options returns the engine's effective options.
func (e *Engine) Options() Options { return e.opts }

// Generation returns the engine's DDL/DML generation counter. It advances on
// every statement that mutates or fails to (CREATE/ALTER/INSERT/DROP/COPY/
// UPDATE, SetSampleMechanism's ALTER SAMPLE) and on every ingestion or
// marginal the Go API stores; a Go-API write refused before it changes
// anything leaves it alone. Prepared statements use it to detect stale plans.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// ExecScript parses and executes a semicolon-separated script, returning the
// result of each statement (nil for DDL/DML).
func (e *Engine) ExecScript(src string) ([]*exec.Result, error) {
	return e.ExecScriptContext(context.Background(), src)
}

// ExecScriptContext is ExecScript with a cancellation context, checked
// between statements and honored inside each SELECT. Statements already
// executed when the context expires stay executed (each statement is atomic;
// scripts are not).
func (e *Engine) ExecScriptContext(ctx context.Context, src string) ([]*exec.Result, error) {
	stmts, err := sql.ParseScript(src)
	if err != nil {
		return nil, err
	}
	out := make([]*exec.Result, 0, len(stmts))
	for i, st := range stmts {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		res, err := e.execScriptStmt(ctx, st)
		if err != nil {
			return out, fmt.Errorf("statement %d: %w", i+1, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Restore replays a snapshot script (DumpScript's output, or any script)
// into e, which must be new: nothing may have changed it yet, and nothing
// may read it until Restore returns. sql.ApplyScript lexes and parses the
// script on two goroutines of its own while Restore runs each statement, in
// source order, on the caller's: the replay holds a fixed few batches of
// statements' tokens, syntax trees and COPY blocks' scanned rows, never the
// script's. The first failing statement ends the replay, with the error and
// the partial state a statement-by-statement loop would leave; the caller
// then discards e.
//
// A restored engine keeps nothing of the script: no name or predicate shares
// its memory, and the statement log ends empty at the generation the replay
// reached, so DeltaScript from any earlier generation answers
// ErrLogTruncated, as it does after log eviction.
func (e *Engine) Restore(script string) error {
	if e.gen.Load() != 0 {
		return errors.New("core: Restore needs a new engine")
	}
	// The replay retains no log (so a COPY renders no entry), and the log
	// starts over at the generation it reaches.
	e.mu.Lock()
	keep := e.log.cap
	e.log.cap = 0
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.log = stmtLog{cap: keep, base: e.gen.Load()}
		e.mu.Unlock()
	}()
	i := 0
	return sql.ApplyScript(script, func(st sql.ScriptStmt) error {
		i++
		if _, err := e.execScriptStmt(context.Background(), st); err != nil {
			return fmt.Errorf("statement %d: %w", i, err)
		}
		return nil
	})
}

// execScriptStmt executes one statement of a script, retaining its SQL
// source so mutations land in the replication log as replayable entries.
func (e *Engine) execScriptStmt(ctx context.Context, st sql.ScriptStmt) (*exec.Result, error) {
	switch s := st.Stmt.(type) {
	case *sql.Select:
		return e.QueryContext(ctx, s)
	case *sql.Explain:
		return e.Explain(s.Query)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return nil, e.execMutation(st.Stmt, st.Source)
}

// execMutation runs one DDL/DML statement under the write lock, appending it
// to the replication log and advancing the generation in the same critical
// section — so a reader holding the read lock always observes a (state,
// generation, log) triple that agree. source is the statement's exact SQL
// text.
func (e *Engine) execMutation(st sql.Statement, source string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	ent := logEntry{src: source}
	defer func() {
		ent.failed = err != nil && ent.render == nil
		e.logged(ent)
	}()
	switch s := st.(type) {
	case *sql.CreateTable:
		err = e.execCreateTable(s)
	case *sql.CreatePopulation:
		err = e.execCreatePopulation(s)
	case *sql.CreateSample:
		err = e.execCreateSample(s)
	case *sql.AlterSample:
		err = e.execAlterSample(s)
	case *sql.CreateMetadata:
		err = e.execCreateMetadata(s)
	case *sql.Insert:
		err = e.execInsert(s)
	case *sql.UpdateWeights:
		err = e.execUpdateWeights(s)
	case *sql.Drop:
		if err = e.cat.Drop(s.Kind, s.Name); err == nil {
			e.releaseDropped()
		}
	case *sql.Copy:
		// A follower replays the rows the COPY stored, not its source: they
		// load whole and without error, wherever the source read them from
		// and however it ended.
		var rows logEntry
		if rows, err = e.execCopy(s); rows.render != nil {
			ent = rows
		}
	default:
		err = fmt.Errorf("core: unsupported statement %T", st)
	}
	return err
}

// logged appends ent to the statement log and advances the generation.
// Callers hold the write lock.
func (e *Engine) logged(ent logEntry) {
	e.log.push(ent)
	e.gen.Add(1)
}

// rowsEntry is the log entry of the rows a bulk load stored into rel, the
// table t, from row n0 on: it renders them as a COPY block when a delta is
// served. It holds t, never a snapshot, whose columns later appends would
// reallocate, and copies the rows' weights only when weighted (they may be
// other than 1) and they are not all 1. That is enough because tables are
// append-only: rows [n0, t.Len())
// keep their values for as long as t lives, whatever its name comes to
// mean, and UPDATE SAMPLE, which rewrites weights, is logged after them.
func (e *Engine) rowsEntry(rel string, t *table.Table, n0 int, weighted bool) logEntry {
	n := t.Len() - n0
	var wts []float64
	if e.log.cap > 0 && weighted {
		if w := t.Snapshot().Weights()[n0:]; !unitWeights(w) {
			wts = slices.Clone(w)
		}
	}
	return logEntry{render: func() string {
		cols, row := storedRows(t.Snapshot(), n0, wts)
		return string(sql.AppendBlock(nil, rel, cols, n, row))
	}}
}

// DeltaScript returns the statements that advance this engine from
// generation `from` to the current generation, in execution order, plus the
// current generation itself. ErrLogTruncated means the range is
// unserviceable (fell out of the bounded log or lies in the future) and the
// follower must re-bootstrap from a full snapshot.
func (e *Engine) DeltaScript(from uint64) ([]LogStmt, uint64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	cur := e.gen.Load()
	stmts, err := e.log.delta(from, cur)
	return stmts, cur, err
}

// sourceTable resolves a FROM name to a physical table (auxiliary table or
// sample backing store); populations have no physical table.
func (e *Engine) sourceTable(name string) (*table.Table, error) {
	if t, ok := e.cat.Table(name); ok {
		return t, nil
	}
	if s, ok := e.cat.Sample(name); ok {
		return s.Table, nil
	}
	return nil, fmt.Errorf("core: relation %q is not a table or sample", name)
}

func (e *Engine) execCreateTable(s *sql.CreateTable) error {
	if s.AsSelect != nil {
		src, err := e.sourceTable(s.AsSelect.From)
		if err != nil {
			return fmt.Errorf("core: CREATE TABLE %s AS: %v", s.Name, err)
		}
		t, err := exec.Materialize(src, s.AsSelect, exec.Options{Weighted: false}, s.Name)
		if err != nil {
			return err
		}
		if s.Schema != nil && !t.Schema().Equal(s.Schema) {
			return fmt.Errorf("core: CREATE TABLE %s: declared schema %s does not match SELECT schema %s",
				s.Name, s.Schema, t.Schema())
		}
		return e.cat.RegisterTable(t)
	}
	_, err := e.cat.CreateTable(s.Name, s.Schema)
	return err
}

func (e *Engine) execCreatePopulation(s *sql.CreatePopulation) error {
	if s.Global {
		sc := s.Schema
		if sc == nil {
			return fmt.Errorf("core: global population %s needs an explicit attribute list", s.Name)
		}
		_, err := e.cat.CreateGlobalPopulation(s.Name, sc)
		return err
	}
	sel := s.AsSelect
	var attrs []string
	for _, it := range sel.Items {
		if it.Star {
			continue
		}
		col, ok := it.Expr.(*expr.Column)
		if !ok || it.Agg != sql.AggNone {
			return fmt.Errorf("core: population %s definition must project plain columns", s.Name)
		}
		attrs = append(attrs, col.Name)
	}
	_, err := e.cat.CreatePopulation(s.Name, sel.From, sel.Where, attrs)
	return err
}

func (e *Engine) execCreateSample(s *sql.CreateSample) error {
	pop, ok := e.cat.Population(s.From)
	if !ok {
		return fmt.Errorf("core: population %q is not declared", s.From)
	}
	var sc *schema.Schema
	switch {
	case s.Schema != nil:
		sc = s.Schema
	case s.Star:
		sc = pop.Schema
	default:
		ps, _, err := pop.Schema.Project(s.Columns)
		if err != nil {
			return fmt.Errorf("core: sample %s: %v", s.Name, err)
		}
		sc = ps
	}
	_, err := e.cat.CreateSample(s.Name, s.From, s.Where, sc, s.Mechanism)
	return err
}

// SetSampleMechanism installs or replaces a sample's mechanism: it renders
// ALTER SAMPLE sample USING MECHANISM m, parses that and executes it, so the
// engine installs exactly the mechanism a follower replaying the statement
// does. A mechanism of a type SQL cannot spell is refused with a
// *mechanism.NoSQLError, and one whose rendering does not parse (a
// probability outside (0, 1], say) with the parser's error, both before
// anything changes.
func (e *Engine) SetSampleMechanism(sample string, m mechanism.Mechanism) error {
	if err := mechanism.CheckSQL(m); err != nil {
		return err
	}
	src := (&sql.AlterSample{Sample: sample, Mechanism: m}).String()
	st, err := sql.ParseStatement(src)
	if err != nil {
		return fmt.Errorf("core: SetSampleMechanism(%q, %s): %w", sample, m.Name(), err)
	}
	return e.execMutation(st, src)
}

func (e *Engine) execAlterSample(s *sql.AlterSample) error {
	smp, ok := e.cat.Sample(s.Sample)
	if !ok {
		return fmt.Errorf("core: no sample %q", s.Sample)
	}
	smp.SetMechanism(s.Mechanism)
	return nil
}

func (e *Engine) execCreateMetadata(s *sql.CreateMetadata) error {
	src, err := e.sourceTable(s.From)
	if err != nil {
		return fmt.Errorf("core: CREATE METADATA %s: %v", s.Name, err)
	}
	m, err := marginal.New(s.Name, s.Attrs)
	if err != nil {
		return err
	}
	for attr, w := range s.Bins {
		if err := m.SetBinWidth(attr, w); err != nil {
			return err
		}
	}
	idxs := make([]int, len(s.Attrs))
	for i, a := range s.Attrs {
		j, ok := src.Schema().Index(a)
		if !ok {
			return fmt.Errorf("core: CREATE METADATA %s: relation %s has no attribute %q", s.Name, s.From, a)
		}
		idxs[i] = j
	}
	// The WHERE is the engine's one selection, and a count expression is
	// evaluated at its kept rows as UPDATE SAMPLE's new weight is, WEIGHT
	// resolving in both as in SELECT; COUNT(*) reads the stored weights.
	// The cells of a marginal are one or two attributes, read straight from
	// their columns. An error at a kept row comes before the selection's,
	// which lies at a later row.
	snap := src.Snapshot()
	var rows []int32
	var counts []float64
	if s.CountExpr == nil {
		if err := exec.CheckNames(src.Schema(), s.Where); err != nil {
			return err
		}
		rows, err = exec.SelectRows(context.Background(), snap, s.Where, snap.Weights(), e.opts.Workers)
	} else {
		rows, counts, err = exec.UpdateWeights(snap, s.Where, s.CountExpr, e.opts.Workers)
	}
	if bad, ok := err.(*exec.WeightError); ok {
		f, ferr := bad.Value.Float64()
		if ferr != nil {
			return fmt.Errorf("core: CREATE METADATA %s: count column: %v", s.Name, ferr)
		}
		return fmt.Errorf("marginal %s: negative count %g", s.Name, f)
	}
	for k, r := range rows {
		count := snap.Weight(int(r))
		if counts != nil {
			count = counts[k]
		}
		vals := make([]value.Value, len(idxs))
		for i, j := range idxs {
			vals[i] = snap.Value(int(r), j)
		}
		if err := m.Add(vals, count); err != nil {
			return err
		}
	}
	if err != nil {
		return err
	}
	return e.cat.AddMarginal(s.TargetPopulation(), m)
}

// AddMarginal attaches a programmatically built marginal to a population.
// The engine keeps m: models and fits recognise it by pointer, and the
// statement log renders it when a delta is served, so the caller must not
// add to or rescale it afterwards.
func (e *Engine) AddMarginal(pop string, m *marginal.Marginal) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.cat.AddMarginal(pop, m); err != nil {
		return err
	}
	p, _ := e.cat.Population(pop)
	e.logged(logEntry{render: func() string {
		var b strings.Builder
		writeMetadata(&b, p, m)
		return b.String()
	}})
	return nil
}

// execInsert appends the rows of an INSERT. Into a sample, the column list
// may name WEIGHT, the tuple's weight (SELECT's pseudo-column rule: a real
// column of that name wins), and so may a row's WEIGHT clause, which no
// column shadows. The weight converts as UPDATE SAMPLE's SET WEIGHT does,
// and a row without one weighs 1.
func (e *Engine) execInsert(s *sql.Insert) error {
	t, err := e.sourceTable(s.Table)
	if err != nil {
		return fmt.Errorf("core: INSERT INTO %s: %v", s.Table, err)
	}
	if len(s.Weights) > 0 {
		if _, isSample := e.cat.Sample(s.Table); !isSample {
			return fmt.Errorf("core: INSERT INTO %s: a WEIGHT clause needs a sample", s.Table)
		}
	}
	sc := t.Schema()
	colIdx := make([]int, 0, sc.Len()) // -1 marks the WEIGHT pseudo-column
	weightCol := false
	if len(s.Columns) == 0 {
		for j := range sc.Len() {
			colIdx = append(colIdx, j)
		}
	} else {
		for _, c := range s.Columns {
			j, ok := sc.Index(c)
			if !ok && strings.EqualFold(c, "WEIGHT") {
				if _, isSample := e.cat.Sample(s.Table); isSample {
					j, ok, weightCol = -1, true, true
				}
			}
			if !ok {
				return fmt.Errorf("core: INSERT INTO %s: no column %q", s.Table, c)
			}
			colIdx = append(colIdx, j)
		}
	}
	// The rows go to the table a chunk at a time (appendRows), cut from one
	// slab that the next chunk reuses: the table copies every value in.
	nc := sc.Len()
	slab := make([]value.Value, min(len(s.Rows), ingestChunk)*nc)
	var rows [][]value.Value
	var wts []float64
	_, err = appendRows(t, len(s.Rows), false, func(lo, hi int) ([][]value.Value, []float64, error) {
		rows, wts = rows[:0], wts[:0]
		for ri := lo; ri < hi; ri++ {
			row := slab[(ri-lo)*nc : (ri-lo+1)*nc : (ri-lo+1)*nc]
			clear(row)
			w, err := insertRow(row, s, ri, colIdx, weightCol)
			if err != nil {
				return rows, wts, fmt.Errorf("core: INSERT INTO %s row %d: %v", s.Table, ri+1, err)
			}
			rows, wts = append(rows, row), append(wts, w)
		}
		return rows, wts, nil
	})
	return err
}

// insertRow evaluates row ri of an INSERT into row: its i-th value is
// column colIdx[i], or the weight where colIdx[i] is -1. It returns the
// row's weight.
func insertRow(row []value.Value, s *sql.Insert, ri int, colIdx []int, weightCol bool) (float64, error) {
	rexprs := s.Rows[ri]
	if len(rexprs) != len(colIdx) {
		return 0, fmt.Errorf("%d values for %d columns", len(rexprs), len(colIdx))
	}
	w := 1.0
	for i, ex := range rexprs {
		v, err := ex.Eval(nil)
		switch {
		case err != nil:
			return 0, err
		case colIdx[i] >= 0:
			row[colIdx[i]] = v
		default:
			if w, err = v.Float64(); err != nil {
				return 0, fmt.Errorf("weight: %v", err)
			}
		}
	}
	if ri < len(s.Weights) && s.Weights[ri] != nil {
		if weightCol {
			return 0, errors.New("weight given twice")
		}
		v, err := s.Weights[ri].Eval(nil)
		if err == nil {
			w, err = v.Float64()
		}
		if err != nil {
			return 0, fmt.Errorf("weight: %v", err)
		}
	}
	return w, nil
}

// execUpdateWeights reweights a sample's tuples. WEIGHT in SET or WHERE is
// the tuple's weight from before the statement, by SELECT's pseudo-column
// rule: a real column of that name wins. The columnar pipeline computes the
// new weights (exec.UpdateWeights); the row loop below runs only under
// RowExec, the oracle the pipeline is held to.
func (e *Engine) execUpdateWeights(s *sql.UpdateWeights) error {
	smp, ok := e.cat.Sample(s.Sample)
	if !ok {
		return fmt.Errorf("core: no sample %q", s.Sample)
	}
	t := smp.Table
	snap := t.Snapshot()
	w := t.Weights()
	if !e.opts.RowExec {
		rows, vals, err := exec.UpdateWeights(snap, s.Where, s.Weight, e.opts.Workers)
		if bad, ok := err.(*exec.WeightError); ok {
			return weightError(s.Sample, bad.Value)
		}
		if err != nil {
			return err
		}
		for k, r := range rows {
			w[r] = vals[k]
		}
		return t.SetWeights(w)
	}
	if err := exec.CheckNames(t.Schema(), s.Where, s.Weight); err != nil {
		return err
	}
	sc, wIdx := t.Schema(), -1
	if _, shadowed := sc.Index("WEIGHT"); !shadowed {
		wIdx = sc.Len()
		sc = schema.MustNew(append(sc.Attributes(), schema.Attribute{Name: "WEIGHT", Kind: value.KindFloat})...)
	}
	// One binding serves every tuple: nothing keeps the row past its
	// evaluation, so each is materialized over the last.
	b := &expr.Binding{Schema: sc}
	for i := range w {
		b.Row = snap.AppendRow(b.Row[:0], i)
		if wIdx >= 0 {
			b.Row = append(b.Row, value.Float(snap.Weight(i)))
		}
		if s.Where != nil {
			ok, err := expr.Truthy(s.Where, b)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		v, err := s.Weight.Eval(b)
		if err != nil {
			return err
		}
		f, err := v.Float64()
		if err != nil || f < 0 {
			return weightError(s.Sample, v)
		}
		w[i] = f
	}
	return t.SetWeights(w)
}

// weightError words UPDATE SAMPLE's refusal of a new weight v: TEXT, or a
// negative number.
func weightError(sample string, v value.Value) error {
	f, err := v.Float64()
	if err != nil {
		return fmt.Errorf("core: UPDATE SAMPLE %s: weight: %v", sample, err)
	}
	return fmt.Errorf("core: UPDATE SAMPLE %s: negative weight %g", sample, f)
}

// Ingest appends Go-native rows into a table or sample (the bulk-loading
// path the paper's "...Ingest Yahoo sample..." step implies). It stops at
// the first row that fails, with an error naming it, and keeps the rows
// before it.
func (e *Engine) Ingest(relation string, rows [][]any) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.sourceTable(relation)
	if err != nil {
		return err
	}
	n0 := t.Len()
	defer func() { e.logged(e.rowsEntry(relation, t, n0, false)) }()
	ri, err := appendRows(t, len(rows), false, builtRows(func(buf []value.Value, i int) ([]value.Value, error) {
		for _, x := range rows[i] {
			v, err := value.FromRaw(x)
			if err != nil {
				return buf, err
			}
			buf = append(buf, v)
		}
		return buf, nil
	}))
	if err != nil {
		return fmt.Errorf("core: ingest %s row %d: %v", relation, ri+1, err)
	}
	return nil
}

// IngestTable bulk-copies all rows of src into the named relation: the rows
// src holds when the call begins, so src may be the relation itself. Like
// Ingest, it stops at the first row that fails and keeps the rows before it.
func (e *Engine) IngestTable(relation string, src *table.Table) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	dst, err := e.sourceTable(relation)
	if err != nil {
		return err
	}
	n0 := dst.Len()
	defer func() { e.logged(e.rowsEntry(relation, dst, n0, false)) }()
	snap := src.Snapshot()
	ri, err := appendRows(dst, snap.Len(), false, builtRows(func(buf []value.Value, i int) ([]value.Value, error) {
		return snap.AppendRow(buf, i), nil
	}))
	if err != nil {
		return fmt.Errorf("core: ingest %s row %d: %v", relation, ri+1, err)
	}
	return nil
}

// ingestChunk is how many rows a bulk load converts before it hands them to
// table.BulkAppendWeighted: its buffers are reused from chunk to chunk, so
// a load allocates the same for any row count. A dump's COPY blocks hold as
// many rows each.
const ingestChunk = 1024

// appendRows stores n rows into t a chunk at a time: chunk(lo, hi) returns
// rows [lo, hi) and their weights (nil: every weight 1), or the rows before
// the first one it cannot give and that row's error. appendRows stops at
// the first row whose chunk, coercion or weight fails and returns that
// row's index and error, keeping the rows before it, as a loop of
// t.AppendWeighted would. clone is table.BulkAppendWeighted's: set it when
// the rows' strings alias memory the table must not keep.
func appendRows(t *table.Table, n int, clone bool, chunk func(lo, hi int) ([][]value.Value, []float64, error)) (int, error) {
	for lo := 0; lo < n; lo += ingestChunk {
		rows, wts, rowErr := chunk(lo, min(lo+ingestChunk, n))
		if err := t.BulkAppendWeighted(rows, wts, clone); err != nil {
			var be *table.BatchError
			if errors.As(err, &be) {
				return lo + be.Row, be.Err
			}
			return lo, err
		}
		if rowErr != nil {
			return lo + len(rows), rowErr
		}
	}
	return n, nil
}

// builtRows gives appendRows chunks of rows of weight 1 that add builds,
// appending row i's values to buf; the buffers are reused from chunk to
// chunk.
func builtRows(add func(buf []value.Value, i int) ([]value.Value, error)) func(lo, hi int) ([][]value.Value, []float64, error) {
	var flat []value.Value
	var ends []int
	var batch [][]value.Value
	return func(lo, hi int) ([][]value.Value, []float64, error) {
		flat, ends, batch = flat[:0], ends[:0], batch[:0]
		var err error
		for i := lo; i < hi && err == nil; i++ {
			if flat, err = add(flat, i); err == nil {
				ends = append(ends, len(flat))
			}
		}
		// flat may have moved while it grew: rows are cut from it only now.
		start := 0
		for _, end := range ends {
			batch = append(batch, flat[start:end:end])
			start = end
		}
		return batch, nil, err
	}
}

func andExpr(a, b expr.Expr) expr.Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return expr.Bin(expr.OpAnd, a, b)
	}
}

func modelKey(sample, pop string) string {
	return strings.ToLower(sample) + "|" + strings.ToLower(pop)
}
