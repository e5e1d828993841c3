package swg

import (
	"context"
	"errors"
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

// Resolved returns the configuration New trains with for a sample of
// sampleRows rows: every zero field at its default, StepsPerEpoch included.
func (c Config) Resolved(sampleRows int) Config {
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
	if c.StepsPerEpoch <= 0 {
		c.StepsPerEpoch = max(1, sampleRows/c.BatchSize)
	}
	return c
}

// ErrDiverged is wrapped by the error TrainContext returns when the loss
// stops being a finite number.
var ErrDiverged = errors.New("swg: training diverged")

// lossItem is one precompiled (marginal, direction) constraint: the encoded
// subspace columns, one fixed unit direction over them and — because both Ω
// and the batch size are fixed — the precomputed target quantiles of the
// marginal projected onto that direction. scale is the term weight divided
// by the marginal's direction count (the 1/p of Eq. 1).
type lossItem struct {
	cols    []int
	dir     []float64
	targets []float64
	scale   float64
}

// Model is a trained or trainable M-SWG.
//
// Data layout: the encoded sample, latent batches, generator output and loss
// gradient are flat row-major nn.Batch values. Training owns its scratch
// (trainScratch, built once per TrainContext call and dropped with it, so a
// cached model carries no training buffers); generation borrows an
// evalScratch from a pool, so any number of goroutines may generate from one
// trained model at once.
type Model struct {
	Enc    *Encoder
	Net    *nn.Network
	cfg    Config
	rng    *rand.Rand
	items  []lossItem
	sample nn.Batch // encoded sample rows (the manifold anchor set)
	// keyCol and keyCol2 are the encoded columns proximity anchors are
	// indexed by (proximityKeys).
	keyCol, keyCol2 int
	adam            *nn.Adam
	// History records per-epoch mean training loss.
	History []float64
	evals   sync.Pool // of *evalScratch
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
	if cfg.BatchSize == 1 {
		return nil, fmt.Errorf("swg: BatchSize 1: batch normalization needs at least two rows per training batch")
	}
	enc, err := BuildEncoder(sample, marginals)
	if err != nil {
		return nil, err
	}
	cfg = cfg.Resolved(sample.Len())
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
	m.keyCol, m.keyCol2 = proximityKeys(enc, m.sample)
	for _, mg := range marginals {
		if err := m.compileTerm(mg); err != nil {
			return nil, err
		}
	}
	m.Net = nn.NewMLP(cfg.Latent, cfg.Hidden, enc.Dim, enc.SoftmaxBlocks(), rng)
	m.adam = nn.NewAdam(cfg.LR)
	return m, nil
}

// compileTerm appends one marginal's loss items, in direction order.
func (m *Model) compileTerm(mg *marginal.Marginal) error {
	cols, err := m.Enc.SubspaceCols(mg.Attrs)
	if err != nil {
		return err
	}
	cells := mg.Cells()
	points := make([][]float64, len(cells))
	weights := make([]float64, len(cells))
	for i, c := range cells {
		p, err := m.Enc.EncodeCellPoint(mg.Attrs, c.Vals)
		if err != nil {
			return err
		}
		points[i] = p
		weights[i] = c.Count
	}
	var dirs [][]float64
	weight := 1.0 // the 1/p factor is the average over dirs
	if len(cols) == 1 {
		dirs = [][]float64{{1}}
		weight = m.cfg.OneDWeight
	} else {
		dirs = make([][]float64, m.cfg.Projections)
		for i := range dirs {
			dirs[i] = wasserstein.RandomUnitVector(m.rng, len(cols))
		}
	}
	for _, d := range dirs {
		proj := make([]float64, len(points))
		for pi, p := range points {
			var s float64
			for j, dj := range d {
				s += float64(p[j] * dj)
			}
			proj[pi] = s
		}
		wd, err := wasserstein.NewWeighted(proj, weights)
		if err != nil {
			return fmt.Errorf("swg: marginal %s: %v", mg.Name, err)
		}
		m.items = append(m.items, lossItem{
			cols:    cols,
			dir:     d,
			targets: wd.Quantiles(m.cfg.BatchSize),
			scale:   weight / float64(len(dirs)),
		})
	}
	return nil
}

// fillLatent overwrites z with N(0, I_ℓ) draws from rng, row by row.
func fillLatent(rng *rand.Rand, z nn.Batch) {
	for k := range z.Data {
		z.Data[k] = rng.NormFloat64()
	}
}

// gradShards is the fixed number of gradient accumulation partitions in
// lossAndGrad. The partition count does not depend on cfg.Workers and the
// shard buffers are always reduced in shard order, so the floating-point
// accumulation order — and therefore the loss, the gradient, and every
// downstream trained weight — is bit-identical for every worker count.
const gradShards = 16

// trainScratch is everything one training step writes besides the model:
// the network workspace, the latent batch, the loss gradient and the
// per-shard loss scratch. It is sized once for cfg.BatchSize.
type trainScratch struct {
	rng      *rand.Rand // draws the latent batch and the anchor subsample
	ws       *nn.Workspace
	z        nn.Batch
	out      nn.Batch // the generator output lossAndGrad is scoring
	grad     nn.Batch
	itemLoss []float64
	rowLoss  []float64
	anchors  nn.Batch    // this step's proximity anchors: the sample, or a copied subsample of it
	index    anchorIndex // the anchors by m.keyCol and m.keyCol2
	shards   []shardScratch
}

// shardScratch belongs to whichever goroutine runs the shard this step.
type shardScratch struct {
	w1   wasserstein.Scratch
	proj []float64 // one item's projected batch
	g    []float64 // its W1 subgradient
	grad []float64 // the shard's share of ∂L/∂output, batch×Dim
	err  error
}

func (m *Model) newTrainScratch() *trainScratch {
	n, dim := m.cfg.BatchSize, m.Enc.Dim
	ts := &trainScratch{
		rng:      m.rng,
		ws:       m.Net.NewWorkspace(n, true),
		z:        nn.NewBatch(n, m.cfg.Latent),
		grad:     nn.NewBatch(n, dim),
		anchors:  m.sample,
		itemLoss: make([]float64, len(m.items)),
		rowLoss:  make([]float64, n),
		shards:   make([]shardScratch, min(gradShards, len(m.items))),
	}
	if m.sample.Rows > m.cfg.ProximitySubsample {
		ts.anchors = nn.NewBatch(m.cfg.ProximitySubsample, dim)
	}
	ts.index = anchorIndex{
		col:     m.keyCol,
		col2:    m.keyCol2,
		strips:  make([]anchorStrip, 0, (ts.anchors.Rows+stripLen-1)/stripLen),
		entries: make([]anchorKey, 0, ts.anchors.Rows),
		vals:    make([]float64, 0, ts.anchors.Rows),
	}
	if ts.anchors.Rows == m.sample.Rows {
		ts.index.build(ts.anchors) // the whole sample: the same anchors every step
	}
	for s := range ts.shards {
		ts.shards[s] = shardScratch{
			proj: make([]float64, n),
			g:    make([]float64, n),
			grad: make([]float64, n*dim),
		}
	}
	return ts
}

// forEach runs f(m, ts, i) for i in 0..n-1, on cfg.Workers goroutines when
// that is more than one. Index i goes to goroutine i mod workers; which
// goroutine runs an index never changes what it computes. f is a method
// expression, not a closure, so the serial path allocates nothing.
func (m *Model) forEach(ts *trainScratch, n int, f func(*Model, *trainScratch, int)) {
	workers := min(m.cfg.Workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(m, ts, i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(m, ts, i)
			}
		}(w)
	}
	wg.Wait()
}

// lossAndGrad computes Eq. 1 on the generator output batch and leaves its
// subgradient with respect to that batch in ts.grad. With cfg.Workers > 1
// the projection terms and the proximity rows are processed in parallel; the
// shard partition is static and independent of the worker count, so the
// result is bit-identical regardless of cfg.Workers and goroutine scheduling.
func (m *Model) lossAndGrad(ts *trainScratch, out nn.Batch) (float64, error) {
	ts.out = out
	m.forEach(ts, len(ts.shards), (*Model).wassersteinShard)
	for s := range ts.shards {
		if err := ts.shards[s].err; err != nil {
			return 0, err
		}
	}
	// Reduce in shard order: the same additions in the same order no matter
	// how many workers ran the shards.
	grad := ts.grad.Data
	clear(grad)
	for s := range ts.shards {
		for k, v := range ts.shards[s].grad {
			grad[k] += v
		}
	}
	var loss float64
	for _, l := range ts.itemLoss {
		loss += l
	}

	// Sample-proximity term: λ E_x min_y ||x − y||², estimated over a
	// random subsample of the encoded sample. Rows write disjoint gradient
	// entries, so row-parallelism is exact.
	if m.cfg.Lambda > 0 && m.sample.Rows > 0 {
		if m.sample.Rows > m.cfg.ProximitySubsample {
			// Copied side by side, the anchors every output row searches stay
			// in cache instead of being gathered from all over the sample.
			for i := 0; i < ts.anchors.Rows; i++ {
				copy(ts.anchors.Row(i), m.sample.Row(ts.rng.Intn(m.sample.Rows)))
			}
			ts.index.build(ts.anchors)
		}
		m.forEach(ts, out.Rows, (*Model).proximityRow)
		for _, l := range ts.rowLoss {
			loss += l
		}
	}
	return loss, nil
}

// wassersteinShard accumulates loss items s, s+shards, s+2·shards, … into
// shard s's own gradient buffer.
func (m *Model) wassersteinShard(ts *trainScratch, s int) {
	sh := &ts.shards[s]
	dim := ts.out.Dim
	clear(sh.grad)
	for ii := s; ii < len(m.items); ii += len(ts.shards) {
		it := &m.items[ii]
		wasserstein.ProjectCols(sh.proj, ts.out.Data, dim, it.cols, it.dir)
		d, err := sh.w1.W1ToUniform(sh.proj, it.targets, sh.g)
		if err != nil {
			sh.err = err
			return
		}
		ts.itemLoss[ii] = it.scale * d
		for r, gr := range sh.g {
			if gr == 0 {
				continue
			}
			gs := it.scale * gr
			row := sh.grad[r*dim : (r+1)*dim]
			for j, c := range it.cols {
				row[c] += float64(gs * it.dir[j])
			}
		}
	}
}

// proximityRow adds output row r's nearest-anchor term to ts.grad.
func (m *Model) proximityRow(ts *trainScratch, r int) {
	dim := ts.out.Dim
	x := ts.out.Data[r*dim : (r+1)*dim]
	inv := 1 / float64(ts.out.Rows)
	best, bestAt := ts.index.nearest(x, ts.anchors)
	ts.rowLoss[r] = m.cfg.Lambda * best * inv
	if bestAt < 0 {
		// No distance was below +Inf: the loss is already non-finite and
		// TrainContext refuses the step.
		return
	}
	y := ts.anchors.Row(bestAt)
	row := ts.grad.Data[r*dim : (r+1)*dim]
	for j, xj := range x {
		row[j] += float64(m.cfg.Lambda * 2 * (xj - y[j]) * inv)
	}
}

// Train runs the full training schedule: Adam with the paper's plateau
// learning-rate decay. It is idempotent to call once; further calls continue
// training from the current parameters.
func (m *Model) Train() error {
	return m.TrainContext(context.Background())
}

// trainStep runs one optimizer step and returns its loss. A non-finite loss
// is returned before the parameters move.
func (m *Model) trainStep(ts *trainScratch) (float64, error) {
	fillLatent(ts.rng, ts.z)
	out := m.Net.Forward(ts.ws, ts.z)
	loss, err := m.lossAndGrad(ts, out)
	if err != nil || !finite(loss) {
		return loss, err
	}
	m.Net.Backward(ts.ws, ts.grad)
	m.adam.Step(m.Net.Params())
	return loss, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// TrainContext is Train with a cancellation context, checked before every
// training step (the finest deterministic unit of work). A cancelled training
// run returns ctx.Err() with the model left partially trained; callers that
// cache trained models must discard a cancelled model and retrain from a
// fresh one — training is a pure function of (sample, marginals, Config), so
// a from-scratch retrain reproduces the uncancelled weights bit for bit.
//
// A loss that is NaN or ±Inf (a learning rate too large for the data) stops
// training with an error wrapping ErrDiverged; the model is left untrained.
// Divergence is as deterministic as the weights, so callers may cache the
// error exactly as they would have cached the model.
func (m *Model) TrainContext(ctx context.Context) error {
	ts := m.newTrainScratch()
	best := math.Inf(1)
	sinceBest := 0
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		var sum float64
		for step := 0; step < m.cfg.StepsPerEpoch; step++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			loss, err := m.trainStep(ts)
			if err != nil {
				return err
			}
			if !finite(loss) {
				return fmt.Errorf("%w (non-finite loss at epoch %d, step %d)", ErrDiverged, epoch, step)
			}
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
	return nil
}

// evalScratch is what one generating goroutine needs: an eval workspace and
// a latent batch, both sized for cfg.BatchSize.
type evalScratch struct {
	ws *nn.Workspace
	z  nn.Batch
}

// generate pushes n latent draws from rng through the generator, one
// eval-mode batch at a time (batch norm uses running statistics; the model
// is only read), handing each encoded batch to sink. The batch aliases
// pooled scratch and is valid only during the call. The context is checked
// once per batch.
func (m *Model) generate(ctx context.Context, rng *rand.Rand, n int, sink func(nn.Batch) error) error {
	es, _ := m.evals.Get().(*evalScratch)
	if es == nil {
		es = &evalScratch{
			ws: m.Net.NewWorkspace(m.cfg.BatchSize, false),
			z:  nn.NewBatch(m.cfg.BatchSize, m.cfg.Latent),
		}
	}
	defer m.evals.Put(es)
	for done := 0; done < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		z := es.z.Head(min(m.cfg.BatchSize, n-done))
		fillLatent(rng, z)
		if err := sink(m.Net.Eval(es.ws, z)); err != nil {
			return err
		}
		done += z.Rows
	}
	return nil
}

// decoder builds one generated table column-natively, a batch of encoded
// rows at a time: generation decodes each eval batch as it leaves the
// network instead of first assembling all n encoded vectors. Sampled tuples
// go straight into typed column builders (dictionary codes for TEXT levels,
// payload slices for continuous attributes), so replicate tables are born
// columnar: no per-row validation, locking or dictionary map lookups. The
// result is value-identical (values, kinds, weights, typed columns) to
// decoding and appending one row at a time — the retired path, kept as the
// oracle in oracle_test.go. Only dictionary code NUMBERING may differ when
// the schema has two or more TEXT attributes (this path interns per
// attribute within a batch, row-append interns row-major); codes are
// snapshot-internal, so no query output can observe the difference.
type decoder struct {
	enc  *Encoder
	name string
	w    float64
	cols []table.Column // typed builders, allocated for all n rows up front
	dict *table.Dict
	cats []catCache // per attribute; empty for continuous ones
	at   int        // rows decoded so far
	n    int
}

// catCache holds one categorical attribute's per-level decode results,
// filled on first argmax hit: the coerced value (the same coercion Append's
// schema validation applied) and, for TEXT, the dictionary code. Lazy filling
// keeps the coercion-error surface identical to the row-append path — a bad
// level only errors if some row actually selects it.
type catCache struct {
	levels []value.Value
	have   []bool
	codes  []uint32
}

func (m *Model) newDecoder(name string, n int, w float64) (*decoder, error) {
	if w < 0 {
		return nil, fmt.Errorf("table %s: negative weight %g", name, w)
	}
	sc := m.Enc.Schema
	d := &decoder{
		enc: m.Enc, name: name, w: w, n: n,
		cols: make([]table.Column, sc.Len()),
		dict: table.NewDict(),
		cats: make([]catCache, sc.Len()),
	}
	for ai := range m.Enc.Attrs {
		sp := &m.Enc.Attrs[ai]
		col := &d.cols[ai]
		col.Kind = sc.At(ai).Kind
		switch col.Kind {
		case value.KindText:
			col.Codes = make([]uint32, n)
		case value.KindBool:
			col.Bools = make([]bool, n)
		case value.KindInt:
			col.Ints = make([]int64, n)
		case value.KindFloat:
			col.Floats = make([]float64, n)
		}
		if sp.Categorical {
			d.cats[ai] = catCache{
				levels: make([]value.Value, len(sp.Cats)),
				have:   make([]bool, len(sp.Cats)),
				codes:  make([]uint32, len(sp.Cats)),
			}
		}
	}
	return d, nil
}

// decode appends b's rows, mirroring the oracle's Encoder.DecodeRow exactly:
// categorical blocks force to their argmax level, continuous values clamp to
// [0,1] and unscale, INT attributes round to the nearest whole number.
func (d *decoder) decode(b nn.Batch) error {
	if b.Dim != d.enc.Dim {
		// Same validation (and message) DecodeRow applies per row.
		return fmt.Errorf("swg: vector has %d dims, encoder has %d", b.Dim, d.enc.Dim)
	}
	if d.at+b.Rows > d.n {
		return fmt.Errorf("swg: decoding %d rows into a table sized for %d", d.at+b.Rows, d.n)
	}
	for ai := range d.enc.Attrs {
		sp := &d.enc.Attrs[ai]
		col := &d.cols[ai]
		if sp.Categorical {
			if err := d.decodeCategorical(sp, col, &d.cats[ai], b); err != nil {
				return err
			}
			continue
		}
		// Continuous: clamp, unscale, and (for INT) round — DecodeRow's exact
		// arithmetic, always yielding the schema kind, so no coercion applies.
		for i := 0; i < b.Rows; i++ {
			f := b.Data[i*b.Dim+sp.Offset]
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			raw := sp.Min + float64(f*(sp.Max-sp.Min))
			if col.Kind == value.KindInt {
				col.Ints[d.at+i] = int64(math.Round(raw))
			} else {
				col.Floats[d.at+i] = raw
			}
		}
	}
	d.at += b.Rows
	return nil
}

func (d *decoder) decodeCategorical(sp *AttrSpec, col *table.Column, cc *catCache, b nn.Batch) error {
	for i := 0; i < b.Rows; i++ {
		block := b.Data[i*b.Dim+sp.Offset : i*b.Dim+sp.Offset+sp.Width]
		best, bestV := 0, math.Inf(-1)
		for j, v := range block {
			if v > bestV {
				bestV = v
				best = j
			}
		}
		if !cc.have[best] {
			cv, err := value.Coerce(sp.Cats[best], col.Kind)
			if err != nil {
				return fmt.Errorf("table %s: schema: attribute %q: %v", d.name, sp.Name, err)
			}
			cc.levels[best] = cv
			if col.Kind == value.KindText {
				cc.codes[best] = d.dict.Code(cv.AsText())
			}
			cc.have[best] = true
		}
		cv := cc.levels[best]
		switch col.Kind {
		case value.KindText:
			col.Codes[d.at+i] = cc.codes[best]
		case value.KindBool:
			col.Bools[d.at+i] = cv.AsBool()
		case value.KindInt:
			col.Ints[d.at+i] = cv.AsInt()
		case value.KindFloat:
			col.Floats[d.at+i] = cv.AsFloat()
		}
	}
	return nil
}

// table finishes the build once all n rows are decoded.
func (d *decoder) table() (*table.Table, error) {
	if d.at != d.n {
		return nil, fmt.Errorf("swg: decoded %d of %d rows", d.at, d.n)
	}
	wts := make([]float64, d.n)
	for i := range wts {
		wts[i] = d.w
	}
	return table.FromColumns(d.name, d.enc.Schema, d.cols, wts, d.dict)
}

// Generate produces a generated sample table of n tuples with weight 1.
func (m *Model) Generate(name string, n int) (*table.Table, error) {
	return m.generateTable(context.Background(), m.rng, name, n, 1)
}

// GenerateSeededWeightedContext produces a generated sample table of n
// tuples, each at weight w, using an independent RNG stream derived from
// seed. Unlike Generate it does not advance the model's training RNG, so
// replicate r of an OPEN query can be generated on any goroutine in any
// order and still be deterministic; the OPEN path's uniform reweighting to
// the population size happens here, at build time, rather than as a second
// pass over the replicate table. The context is checked once per generated
// batch. A cancelled generation returns ctx.Err() and discards the partial
// replicate; the model itself is untouched (eval-mode forward passes are
// read-only), so re-running with the same seed reproduces the uncancelled
// replicate bit for bit.
func (m *Model) GenerateSeededWeightedContext(ctx context.Context, name string, n int, seed int64, w float64) (*table.Table, error) {
	return m.generateTable(ctx, rand.New(rand.NewSource(seed)), name, n, w)
}

// generateTable decodes each generated batch straight into the table's typed
// column builders.
func (m *Model) generateTable(ctx context.Context, rng *rand.Rand, name string, n int, w float64) (*table.Table, error) {
	d, err := m.newDecoder(name, n, w)
	if err != nil {
		return nil, err
	}
	if err := m.generate(ctx, rng, n, d.decode); err != nil {
		return nil, err
	}
	return d.table()
}

// Config returns the effective (defaulted) configuration.
func (m *Model) Config() Config { return m.cfg }
