package swg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"mosaic/internal/marginal"
	"mosaic/internal/nn"
	"mosaic/internal/table"
	"mosaic/internal/value"
	"mosaic/internal/wasserstein"
)

// Config tunes an M-SWG. Zero fields take the paper's defaults where the
// paper gives one.
type Config struct {
	// Hidden layer widths. Default: three layers of 100 (the paper's
	// synthetic-data topology).
	Hidden []int
	// Latent is the generator input dimension ℓ. Default 2; the flights
	// experiment sets it to the encoded dimensionality.
	Latent int
	// Lambda trades off marginal fit against sample structure (Eq. 1).
	// Default 0.04 (the paper's synthetic-data setting).
	Lambda float64
	// Projections is p, the number of fixed random projections per ≥2-D
	// marginal subspace. Default 100.
	Projections int
	// BatchSize is the training batch. Default 500.
	BatchSize int
	// LR is the initial Adam learning rate. Default 0.001.
	LR float64
	// Epochs is the number of training epochs. Default 20.
	Epochs int
	// StepsPerEpoch is training steps per epoch; default max(1, |S|/batch)
	// ("each epoch is one pass over the population marginals").
	StepsPerEpoch int
	// ProximitySubsample caps the encoded sample rows scanned per batch for
	// the λ term; 0 means 1024. The term is an expectation over G, so a
	// random subsample is an unbiased stochastic estimate.
	ProximitySubsample int
	// OneDWeight is the coefficient on the exact 1-D terms (the paper's k).
	// Default 1.
	OneDWeight float64
	// PlateauPatience is the number of epochs without loss improvement
	// before the learning rate decays by 10× ("decreases by a factor of 10
	// if a plateau is reached"). Default 5.
	PlateauPatience int
	// Workers parallelizes the loss computation over projections and
	// proximity rows. 0/1 = serial. Work is partitioned into a fixed number
	// of shards reduced in shard order, so losses, gradients, and trained
	// weights are bit-identical for every Workers value and scheduling.
	Workers int
	// Seed drives all model randomness. Default 1.
	Seed int64
}

func (c Config) withDefaults(enc *Encoder) Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{100, 100, 100}
	}
	if c.Latent <= 0 {
		c.Latent = 2
	}
	if c.Lambda == 0 {
		c.Lambda = 0.04
	}
	if c.Projections <= 0 {
		c.Projections = 100
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 500
	}
	if c.LR <= 0 {
		c.LR = 0.001
	}
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	if c.ProximitySubsample <= 0 {
		c.ProximitySubsample = 1024
	}
	if c.OneDWeight == 0 {
		c.OneDWeight = 1
	}
	if c.PlateauPatience <= 0 {
		c.PlateauPatience = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	_ = enc
	return c
}

// lossTerm is one precompiled marginal constraint: the encoded subspace
// columns, the fixed projection directions, and — because both Ω and the
// batch size are fixed — the precomputed target quantiles per direction.
type lossTerm struct {
	name    string
	cols    []int
	dirs    [][]float64
	targets [][]float64 // [dir][batch] target quantiles
	weight  float64     // applied after averaging over dirs
}

// Model is a trained or trainable M-SWG.
type Model struct {
	Enc    *Encoder
	Net    *nn.Network
	cfg    Config
	rng    *rand.Rand
	terms  []lossTerm
	sample [][]float64 // encoded sample rows (the manifold anchor set)
	adam   *nn.Adam
	// History records per-epoch mean training loss.
	History []float64
	trained bool
}

// New compiles an M-SWG for the sample and marginal set. Marginals whose
// encoded subspace is one-dimensional get exact W1 terms; wider subspaces
// (2-D marginals, or 1-D marginals over one-hot categorical attributes) get
// sliced terms with cfg.Projections fixed unit directions.
func New(sample *table.Table, marginals []*marginal.Marginal, cfg Config) (*Model, error) {
	if sample.Len() == 0 {
		return nil, fmt.Errorf("swg: empty sample %s", sample.Name())
	}
	if len(marginals) == 0 {
		return nil, fmt.Errorf("swg: no marginals; the M-SWG needs population metadata")
	}
	enc, err := BuildEncoder(sample, marginals)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(enc)
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		Enc: enc,
		cfg: cfg,
		rng: rng,
	}
	m.sample, err = enc.EncodeTable(sample)
	if err != nil {
		return nil, err
	}
	if cfg.StepsPerEpoch <= 0 {
		cfg.StepsPerEpoch = len(m.sample) / cfg.BatchSize
		if cfg.StepsPerEpoch < 1 {
			cfg.StepsPerEpoch = 1
		}
		m.cfg = cfg
	}
	for _, mg := range marginals {
		term, err := m.compileTerm(mg)
		if err != nil {
			return nil, err
		}
		m.terms = append(m.terms, term)
	}
	m.Net = nn.NewMLP(cfg.Latent, cfg.Hidden, enc.Dim, enc.SoftmaxBlocks(), rng)
	m.adam = nn.NewAdam(cfg.LR)
	return m, nil
}

func (m *Model) compileTerm(mg *marginal.Marginal) (lossTerm, error) {
	cols, err := m.Enc.SubspaceCols(mg.Attrs)
	if err != nil {
		return lossTerm{}, err
	}
	cells := mg.Cells()
	points := make([][]float64, len(cells))
	weights := make([]float64, len(cells))
	for i, c := range cells {
		p, err := m.Enc.EncodeCellPoint(mg.Attrs, c.Vals)
		if err != nil {
			return lossTerm{}, err
		}
		points[i] = p
		weights[i] = c.Count
	}
	t := lossTerm{name: mg.Name, cols: cols}
	var dirs [][]float64
	if len(cols) == 1 {
		dirs = [][]float64{{1}}
		t.weight = m.cfg.OneDWeight
	} else {
		dirs = make([][]float64, m.cfg.Projections)
		for i := range dirs {
			dirs[i] = wasserstein.RandomUnitVector(m.rng, len(cols))
		}
		t.weight = 1 // the 1/p factor is the average over dirs
	}
	t.dirs = dirs
	t.targets = make([][]float64, len(dirs))
	for di, d := range dirs {
		proj := make([]float64, len(points))
		for pi, p := range points {
			var s float64
			for j, dj := range d {
				s += p[j] * dj
			}
			proj[pi] = s
		}
		wd, err := wasserstein.NewWeighted(proj, weights)
		if err != nil {
			return lossTerm{}, fmt.Errorf("swg: marginal %s: %v", mg.Name, err)
		}
		t.targets[di] = wd.Quantiles(m.cfg.BatchSize)
	}
	return t, nil
}

// latentBatch draws a batch of N(0, I_ℓ) latent vectors from the model's
// training RNG stream.
func (m *Model) latentBatch(n int) [][]float64 {
	return latentBatchFrom(m.rng, n, m.cfg.Latent)
}

// latentBatchFrom draws a batch of N(0, I_ℓ) latent vectors from rng.
func latentBatchFrom(rng *rand.Rand, n, latent int) [][]float64 {
	z := make([][]float64, n)
	for i := range z {
		row := make([]float64, latent)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		z[i] = row
	}
	return z
}

// gradShards is the fixed number of gradient accumulation partitions in
// lossAndGrad. The partition count does not depend on cfg.Workers and the
// shard buffers are always reduced in shard order, so the floating-point
// accumulation order — and therefore the loss, the gradient, and every
// downstream trained weight — is bit-identical for every worker count.
const gradShards = 16

// lossAndGrad computes Eq. 1 and its subgradient with respect to the
// generator output batch. With cfg.Workers > 1 the projection terms and the
// proximity rows are processed in parallel; the shard partition is static
// and independent of the worker count, so the result is bit-identical
// regardless of cfg.Workers and goroutine scheduling.
func (m *Model) lossAndGrad(out [][]float64) (float64, [][]float64, error) {
	n := len(out)
	grad := make([][]float64, n)
	for i := range grad {
		grad[i] = make([]float64, m.Enc.Dim)
	}

	// Flatten (term, dir) pairs into independent work items.
	type item struct {
		t  *lossTerm
		di int
	}
	var items []item
	for ti := range m.terms {
		t := &m.terms[ti]
		for di := range t.dirs {
			items = append(items, item{t: t, di: di})
		}
	}

	shards := gradShards
	if shards > len(items) {
		shards = len(items)
	}
	workers := m.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}

	itemLoss := make([]float64, len(items))
	shardErr := make([]error, shards)
	shardGrads := make([][][]float64, shards)
	process := func(s int) {
		dst := shardGrads[s]
		for ii := s; ii < len(items); ii += shards {
			it := items[ii]
			scale := it.t.weight / float64(len(it.t.dirs))
			dir := it.t.dirs[it.di]
			proj := wasserstein.ProjectCols(out, it.t.cols, dir)
			d, g, err := wasserstein.W1ToUniform(proj, it.t.targets[it.di])
			if err != nil {
				shardErr[s] = err
				return
			}
			itemLoss[ii] = scale * d
			for r, gr := range g {
				if gr == 0 {
					continue
				}
				gs := scale * gr
				row := dst[r]
				for j, c := range it.t.cols {
					row[c] += gs * dir[j]
				}
			}
		}
	}
	for s := 0; s < shards; s++ {
		buf := make([][]float64, n)
		flat := make([]float64, n*m.Enc.Dim)
		for i := range buf {
			buf[i] = flat[i*m.Enc.Dim : (i+1)*m.Enc.Dim]
		}
		shardGrads[s] = buf
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			process(s)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for s := w; s < shards; s += workers {
					process(s)
				}
			}(w)
		}
		wg.Wait()
	}
	for _, err := range shardErr {
		if err != nil {
			return 0, nil, err
		}
	}
	// Reduce in shard order: the same additions in the same order no matter
	// how many workers ran the shards.
	for s := 0; s < shards; s++ {
		for r := range grad {
			dst, src := grad[r], shardGrads[s][r]
			for c := range dst {
				dst[c] += src[c]
			}
		}
	}
	var loss float64
	for _, l := range itemLoss {
		loss += l
	}

	// Sample-proximity term: λ E_x min_y ||x − y||², estimated over a
	// random subsample of the encoded sample. Rows write disjoint gradient
	// entries, so row-parallelism is exact.
	if m.cfg.Lambda > 0 && len(m.sample) > 0 {
		sub := m.sample
		if len(sub) > m.cfg.ProximitySubsample {
			sub = make([][]float64, m.cfg.ProximitySubsample)
			for i := range sub {
				sub[i] = m.sample[m.rng.Intn(len(m.sample))]
			}
		}
		inv := 1 / float64(n)
		rowLoss := make([]float64, n)
		proxRow := func(r int) {
			x := out[r]
			best := math.Inf(1)
			var bestY []float64
			for _, y := range sub {
				var d float64
				for j := range x {
					diff := x[j] - y[j]
					d += diff * diff
					if d >= best {
						break
					}
				}
				if d < best {
					best = d
					bestY = y
				}
			}
			rowLoss[r] = m.cfg.Lambda * best * inv
			row := grad[r]
			for j := range x {
				row[j] += m.cfg.Lambda * 2 * (x[j] - bestY[j]) * inv
			}
		}
		if workers <= 1 {
			for r := range out {
				proxRow(r)
			}
		} else {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := w; r < n; r += workers {
						proxRow(r)
					}
				}(w)
			}
			wg.Wait()
		}
		for _, l := range rowLoss {
			loss += l
		}
	}
	return loss, grad, nil
}

// Train runs the full training schedule: Adam with the paper's plateau
// learning-rate decay. It is idempotent to call once; further calls continue
// training from the current parameters.
func (m *Model) Train() error {
	return m.TrainContext(context.Background())
}

// TrainContext is Train with a cancellation context, checked before every
// training step (the finest deterministic unit of work). A cancelled training
// run returns ctx.Err() with the model left partially trained; callers that
// cache trained models must discard a cancelled model and retrain from a
// fresh one — training is a pure function of (sample, marginals, Config), so
// a from-scratch retrain reproduces the uncancelled weights bit for bit.
func (m *Model) TrainContext(ctx context.Context) error {
	best := math.Inf(1)
	sinceBest := 0
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		var sum float64
		for step := 0; step < m.cfg.StepsPerEpoch; step++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			z := m.latentBatch(m.cfg.BatchSize)
			out := m.Net.Forward(z, true)
			loss, grad, err := m.lossAndGrad(out)
			if err != nil {
				return err
			}
			m.Net.Backward(grad)
			m.adam.Step(m.Net.Params())
			sum += loss
		}
		mean := sum / float64(m.cfg.StepsPerEpoch)
		m.History = append(m.History, mean)
		if mean < best-1e-9 {
			best = mean
			sinceBest = 0
		} else {
			sinceBest++
			if sinceBest >= m.cfg.PlateauPatience {
				m.adam.LR /= 10
				sinceBest = 0
				if m.adam.LR < 1e-7 {
					break
				}
			}
		}
	}
	m.trained = true
	return nil
}

// Trained reports whether Train has completed at least once.
func (m *Model) Trained() bool { return m.trained }

// generateEncodedFrom produces n encoded vectors drawing latents from rng
// (eval-mode forward: batch norm uses running statistics, no caching). The
// context is checked once per generated batch; a nil ctx never cancels.
func (m *Model) generateEncodedFrom(ctx context.Context, rng *rand.Rand, n int) ([][]float64, error) {
	out := make([][]float64, 0, n)
	for len(out) < n {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		b := m.cfg.BatchSize
		if rem := n - len(out); rem < b {
			b = rem
		}
		z := latentBatchFrom(rng, b, m.cfg.Latent)
		y := m.Net.Forward(z, false)
		out = append(out, y...)
	}
	return out, nil
}

// DecodeTableRowAppend materializes encoded vectors as a weight-1 tuple
// table by decoding and appending one row at a time. It is the retired
// generation path, kept as the reference implementation: DecodeTable must
// produce byte-identical tables (the swg and core test suites pin this),
// and the executor benchmarks race the two.
func (m *Model) DecodeTableRowAppend(name string, enc [][]float64) (*table.Table, error) {
	t := table.New(name, m.Enc.Schema)
	for _, v := range enc {
		row, err := m.Enc.DecodeRow(v)
		if err != nil {
			return nil, err
		}
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// DecodeTable materializes encoded vectors as a tuple table with every row
// at weight w, writing sampled tuples straight into typed column builders
// (dictionary codes for TEXT levels, payload slices for continuous
// attributes) so replicate tables are born columnar: no per-row validation,
// no per-row locking, no per-row dictionary map lookups. Each categorical
// level coerces and interns exactly once, on first use — preserving the
// row-append path's lazy coercion-error behavior — so the resulting table
// is value-identical to DecodeTableRowAppend (values, kinds, weights, typed
// columns). Dictionary code NUMBERING may differ when the schema has two or
// more TEXT attributes (this path interns per attribute, row-append interns
// row-major); codes are snapshot-internal, so no query output can observe
// the difference.
func (m *Model) DecodeTable(name string, enc [][]float64, w float64) (*table.Table, error) {
	if w < 0 {
		return nil, fmt.Errorf("table %s: negative weight %g", name, w)
	}
	for _, v := range enc {
		// Same validation (and message) DecodeRow applies per row.
		if len(v) != m.Enc.Dim {
			return nil, fmt.Errorf("swg: vector has %d dims, encoder has %d", len(v), m.Enc.Dim)
		}
	}
	sc := m.Enc.Schema
	cols := make([]table.Column, sc.Len())
	dict := table.NewDict()
	for ai := range m.Enc.Attrs {
		sp := &m.Enc.Attrs[ai]
		kind := sc.At(ai).Kind
		cols[ai].Kind = kind
		if err := decodeColumn(sp, kind, enc, &cols[ai], dict, name); err != nil {
			return nil, err
		}
	}
	wts := make([]float64, len(enc))
	for i := range wts {
		wts[i] = w
	}
	return table.FromColumns(name, sc, cols, wts, dict)
}

// decodeColumn fills one attribute's typed column for every generated row,
// mirroring Encoder.DecodeRow exactly: categorical
// blocks force to their argmax level, continuous values clamp to [0,1] and
// unscale, INT attributes round to the nearest whole number.
func decodeColumn(sp *AttrSpec, kind value.Kind, enc [][]float64, col *table.Column, dict *table.Dict, name string) error {
	n := len(enc)
	if sp.Categorical {
		// Per-level caches, filled on first argmax hit: the coerced value
		// (the same coercion Append's schema validation applied) and, for
		// TEXT, the dictionary code. Lazy filling keeps the coercion-error
		// surface identical to the row-append path — a bad level only errors
		// if some row actually selects it. Codes intern in this attribute's
		// first-use order (see the DecodeTable doc on code numbering).
		levels := make([]value.Value, len(sp.Cats))
		haveLevel := make([]bool, len(sp.Cats))
		codes := make([]uint32, len(sp.Cats))
		switch kind {
		case value.KindText:
			col.Codes = make([]uint32, n)
		case value.KindBool:
			col.Bools = make([]bool, n)
		case value.KindInt:
			col.Ints = make([]int64, n)
		case value.KindFloat:
			col.Floats = make([]float64, n)
		}
		for i, vec := range enc {
			best, bestV := 0, math.Inf(-1)
			for j := 0; j < sp.Width; j++ {
				if v := vec[sp.Offset+j]; v > bestV {
					bestV = v
					best = j
				}
			}
			if !haveLevel[best] {
				cv, err := value.Coerce(sp.Cats[best], kind)
				if err != nil {
					return fmt.Errorf("table %s: schema: attribute %q: %v", name, sp.Name, err)
				}
				levels[best] = cv
				if kind == value.KindText {
					codes[best] = dict.Code(cv.AsText())
				}
				haveLevel[best] = true
			}
			cv := levels[best]
			switch kind {
			case value.KindText:
				col.Codes[i] = codes[best]
			case value.KindBool:
				col.Bools[i] = cv.AsBool()
			case value.KindInt:
				col.Ints[i] = cv.AsInt()
			case value.KindFloat:
				col.Floats[i] = cv.AsFloat()
			}
		}
		return nil
	}
	// Continuous: clamp, unscale, and (for INT) round — DecodeRow's exact
	// arithmetic, always yielding the schema kind, so no coercion applies.
	if kind == value.KindInt {
		col.Ints = make([]int64, n)
		for i, vec := range enc {
			f := vec[sp.Offset]
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			col.Ints[i] = int64(math.Round(sp.Min + f*(sp.Max-sp.Min)))
		}
		return nil
	}
	col.Floats = make([]float64, n)
	for i, vec := range enc {
		f := vec[sp.Offset]
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		col.Floats[i] = sp.Min + f*(sp.Max-sp.Min)
	}
	return nil
}

// GenerateEncoded produces n encoded vectors from the trained generator,
// advancing the model's training RNG stream.
func (m *Model) GenerateEncoded(n int) [][]float64 {
	out, _ := m.generateEncodedFrom(nil, m.rng, n)
	return out
}

// Generate produces a generated sample table of n tuples with weight 1.
func (m *Model) Generate(name string, n int) (*table.Table, error) {
	return m.DecodeTable(name, m.GenerateEncoded(n), 1)
}

// GenerateEncodedSeeded produces n encoded vectors from an independent RNG
// stream derived from seed, leaving the model's training RNG untouched.
// Eval-mode forward passes are read-only, so concurrent calls on a trained
// model are safe; equal seeds give bit-identical output regardless of what
// other goroutines generate.
func (m *Model) GenerateEncodedSeeded(n int, seed int64) [][]float64 {
	out, _ := m.generateEncodedFrom(nil, rand.New(rand.NewSource(seed)), n)
	return out
}

// GenerateSeeded produces a generated sample table of n tuples with weight 1
// using an independent RNG stream derived from seed. Unlike Generate it does
// not advance the model's training RNG, so replicate r of an OPEN query can
// be generated on any goroutine in any order and still be deterministic.
func (m *Model) GenerateSeeded(name string, n int, seed int64) (*table.Table, error) {
	return m.GenerateSeededWeighted(name, n, seed, 1)
}

// GenerateSeededWeighted is GenerateSeeded with every generated tuple at
// weight w instead of 1 — the OPEN path's uniform reweighting to the
// population size happens at build time rather than as a second pass over
// the replicate table.
func (m *Model) GenerateSeededWeighted(name string, n int, seed int64, w float64) (*table.Table, error) {
	return m.GenerateSeededWeightedContext(context.Background(), name, n, seed, w)
}

// GenerateSeededWeightedContext is GenerateSeededWeighted with a cancellation
// context, checked once per generated batch. A cancelled generation returns
// ctx.Err() and discards the partial replicate; the model itself is untouched
// (eval-mode forward passes are read-only), so re-running with the same seed
// reproduces the uncancelled replicate bit for bit.
func (m *Model) GenerateSeededWeightedContext(ctx context.Context, name string, n int, seed int64, w float64) (*table.Table, error) {
	enc, err := m.generateEncodedFrom(ctx, rand.New(rand.NewSource(seed)), n)
	if err != nil {
		return nil, err
	}
	return m.DecodeTable(name, enc, w)
}

// Loss evaluates Eq. 1 on a fresh eval-mode batch (no parameter update);
// useful for model selection and tests.
func (m *Model) Loss() (float64, error) {
	z := m.latentBatch(m.cfg.BatchSize)
	out := m.Net.Forward(z, false)
	l, _, err := m.lossAndGrad(out)
	return l, err
}

// Config returns the effective (defaulted) configuration.
func (m *Model) Config() Config { return m.cfg }
