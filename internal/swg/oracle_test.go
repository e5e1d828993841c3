package swg

// The reference oracle for column-native generation: the row-at-a-time
// decode that OPEN replicates were built with before tables were born
// columnar, plus the entry points that expose the generator's encoded output
// and the production decoder to the tests. Nothing outside the tests calls
// these; decode_test.go holds the production decoder to the oracle value for
// value. Do not optimize DecodeRow — it defines the arithmetic (argmax,
// clamp, unscale, round) that decoder.decode must reproduce.

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mosaic/internal/nn"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// DecodeRow converts one generated vector back into a tuple, forcing
// categorical blocks to their argmax level ("we … only force the output to
// be binary for data generation") and clamping/unscaling continuous values.
// Integer attributes round to the nearest whole number (the flights data's
// continuous attributes "have been rounded to whole numbers").
func (e *Encoder) DecodeRow(vec []float64) ([]value.Value, error) {
	if len(vec) != e.Dim {
		return nil, fmt.Errorf("swg: vector has %d dims, encoder has %d", len(vec), e.Dim)
	}
	out := make([]value.Value, len(e.Attrs))
	for i := range e.Attrs {
		sp := &e.Attrs[i]
		if sp.Categorical {
			best, bestV := 0, math.Inf(-1)
			for j := 0; j < sp.Width; j++ {
				if v := vec[sp.Offset+j]; v > bestV {
					bestV = v
					best = j
				}
			}
			out[i] = sp.Cats[best]
			continue
		}
		f := vec[sp.Offset]
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		raw := sp.Min + f*(sp.Max-sp.Min)
		if sp.Kind == value.KindInt {
			out[i] = value.Int(int64(math.Round(raw)))
		} else {
			out[i] = value.Float(raw)
		}
	}
	return out, nil
}

// DecodeTableRowAppend materializes encoded vectors as a weight-1 tuple
// table by decoding and appending one row at a time — the retired generation
// path. DecodeTable must produce value-identical tables.
func (m *Model) DecodeTableRowAppend(name string, enc nn.Batch) (*table.Table, error) {
	if enc.Dim != m.Enc.Dim {
		return nil, fmt.Errorf("swg: vector has %d dims, encoder has %d", enc.Dim, m.Enc.Dim)
	}
	t := table.New(name, m.Enc.Schema)
	for i := 0; i < enc.Rows; i++ {
		row, err := m.Enc.DecodeRow(enc.Row(i))
		if err != nil {
			return nil, err
		}
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// DecodeTable runs the production decoder over one encoded batch, every row
// at weight w.
func (m *Model) DecodeTable(name string, enc nn.Batch, w float64) (*table.Table, error) {
	d, err := m.newDecoder(name, enc.Rows, w)
	if err != nil {
		return nil, err
	}
	if err := d.decode(enc); err != nil {
		return nil, err
	}
	return d.table()
}

// generateEncodedFrom collects n generated encoded vectors into one batch.
func (m *Model) generateEncodedFrom(rng *rand.Rand, n int) nn.Batch {
	out := nn.NewBatch(n, m.Enc.Dim)
	at := 0
	// The background context never cancels and the sink never fails.
	_ = m.generate(context.Background(), rng, n, func(b nn.Batch) error {
		at += copy(out.Data[at:], b.Data)
		return nil
	})
	return out
}

// EncodeRow encodes a full sample row, one EncodeValue per attribute.
func (e *Encoder) EncodeRow(row []value.Value) ([]float64, error) {
	out := make([]float64, e.Dim)
	for i := range e.Attrs {
		if err := e.EncodeValue(&e.Attrs[i], row[i], out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GenerateSeeded is GenerateSeededWeighted at weight 1.
func (m *Model) GenerateSeeded(name string, n int, seed int64) (*table.Table, error) {
	return m.GenerateSeededWeighted(name, n, seed, 1)
}

// GenerateSeededWeighted is GenerateSeededWeightedContext without a
// cancellation context.
func (m *Model) GenerateSeededWeighted(name string, n int, seed int64, w float64) (*table.Table, error) {
	return m.GenerateSeededWeightedContext(context.Background(), name, n, seed, w)
}

// GenerateEncoded produces n encoded vectors from the trained generator,
// advancing the model's training RNG stream.
func (m *Model) GenerateEncoded(n int) nn.Batch {
	return m.generateEncodedFrom(m.rng, n)
}

// GenerateEncodedSeeded produces n encoded vectors from an independent RNG
// stream derived from seed, leaving the model's training RNG untouched.
// Eval-mode forward passes are read-only, so concurrent calls on a trained
// model are safe; equal seeds give bit-identical output regardless of what
// other goroutines generate.
func (m *Model) GenerateEncodedSeeded(n int, seed int64) nn.Batch {
	return m.generateEncodedFrom(rand.New(rand.NewSource(seed)), n)
}
