// Package bayes implements the explicit generative model the paper
// contrasts with the M-SWG (Sec 4.2): a tree-structured Bayesian network
// (Chow–Liu tree) learned from a weighted sample, as in the authors' prior
// Themis system [42]. Explicit models answer COUNT-style aggregates by
// direct inference without materializing tuples — at the cost of the
// independence assumptions the tree imposes, which Sec 4.2 warns cannot be
// verified without the population. Ablation A5 (internal/repro) compares it
// against the M-SWG.
//
// Continuous attributes are discretized into equi-width bins; the network
// stores a root marginal and per-edge conditional probability tables.
package bayes

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Options tunes structure learning.
type Options struct {
	// Bins is the number of equi-width bins for numeric attributes
	// (default 16).
	Bins int
	// Laplace is the additive smoothing constant for CPTs (default 0.1).
	Laplace float64
}

func (o Options) withDefaults() Options {
	if o.Bins <= 0 {
		o.Bins = 16
	}
	if o.Laplace <= 0 {
		o.Laplace = 0.1
	}
	return o
}

// attrDomain is the discretized domain of one attribute.
type attrDomain struct {
	name    string
	numeric bool
	// numeric: bin edges (len bins+1); representative = bin midpoint.
	edges []float64
	// categorical: levels.
	levels []value.Value
	lvlIdx map[string]int
}

func (d *attrDomain) size() int {
	if d.numeric {
		return len(d.edges) - 1
	}
	return len(d.levels)
}

func (d *attrDomain) binOf(v value.Value) (int, error) {
	if d.numeric {
		f, err := v.Float64()
		if err != nil {
			return 0, err
		}
		n := d.size()
		if f <= d.edges[0] {
			return 0, nil
		}
		if f >= d.edges[n] {
			return n - 1, nil
		}
		i := sort.SearchFloat64s(d.edges, f) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i, nil
	}
	i, ok := d.lvlIdx[v.HashKey()]
	if !ok {
		return 0, fmt.Errorf("bayes: unseen level %s for %q", v, d.name)
	}
	return i, nil
}

// representative returns a value for bin i (midpoint for numeric bins).
func (d *attrDomain) representative(i int, kind value.Kind) value.Value {
	if !d.numeric {
		return d.levels[i]
	}
	mid := (d.edges[i] + d.edges[i+1]) / 2
	if kind == value.KindInt {
		return value.Int(int64(math.Round(mid)))
	}
	return value.Float(mid)
}

// Network is a learned Chow–Liu tree.
type Network struct {
	kinds    []value.Kind
	domains  []*attrDomain
	parent   []int       // parent attribute index; -1 for the root
	order    []int       // topological sampling order
	rootProb []float64   // P(root)
	cpt      [][]float64 // cpt[attr][parentBin*size+bin] = P(bin|parentBin)
	total    float64     // total weight the model represents
}

// Learn fits a Chow–Liu tree to the weighted sample. All schema attributes
// participate.
func Learn(t *table.Table, opts Options) (*Network, error) {
	opts = opts.withDefaults()
	sc := t.Schema()
	d := sc.Len()
	if d < 1 {
		return nil, fmt.Errorf("bayes: empty schema")
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("bayes: empty sample")
	}

	net := &Network{
		kinds:   make([]value.Kind, d),
		domains: make([]*attrDomain, d),
	}
	for i := 0; i < d; i++ {
		net.kinds[i] = sc.At(i).Kind
	}

	// Build domains.
	for i := 0; i < d; i++ {
		a := sc.At(i)
		dom := &attrDomain{name: a.Name}
		if a.Kind == value.KindText || a.Kind == value.KindBool {
			dom.lvlIdx = map[string]int{}
			t.Scan(func(row []value.Value, _ float64) bool {
				k := row[i].HashKey()
				if _, ok := dom.lvlIdx[k]; !ok {
					dom.lvlIdx[k] = len(dom.levels)
					dom.levels = append(dom.levels, row[i])
				}
				return true
			})
		} else {
			dom.numeric = true
			lo, hi := math.Inf(1), math.Inf(-1)
			var convErr error
			t.Scan(func(row []value.Value, _ float64) bool {
				f, err := row[i].Float64()
				if err != nil {
					convErr = err
					return false
				}
				if f < lo {
					lo = f
				}
				if f > hi {
					hi = f
				}
				return true
			})
			if convErr != nil {
				return nil, convErr
			}
			if hi == lo {
				hi = lo + 1
			}
			dom.edges = make([]float64, opts.Bins+1)
			for b := 0; b <= opts.Bins; b++ {
				dom.edges[b] = lo + (hi-lo)*float64(b)/float64(opts.Bins)
			}
		}
		net.domains[i] = dom
	}

	// Discretize all rows once.
	n := t.Len()
	bins := make([][]int, n)
	wts := make([]float64, n)
	ri := 0
	var binErr error
	t.Scan(func(row []value.Value, w float64) bool {
		br := make([]int, d)
		for i := 0; i < d; i++ {
			b, err := net.domains[i].binOf(row[i])
			if err != nil {
				binErr = err
				return false
			}
			br[i] = b
		}
		bins[ri] = br
		wts[ri] = w
		net.total += w
		ri++
		return true
	})
	if binErr != nil {
		return nil, binErr
	}
	if net.total <= 0 {
		return nil, fmt.Errorf("bayes: zero total weight")
	}

	// Pairwise mutual information on the discretized, weighted data.
	mi := make([][]float64, d)
	for i := range mi {
		mi[i] = make([]float64, d)
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			mi[i][j] = mutualInfo(bins, wts, i, j, net.domains[i].size(), net.domains[j].size(), net.total)
			mi[j][i] = mi[i][j]
		}
	}

	// Maximum spanning tree over MI (Prim's algorithm), rooted at 0.
	net.parent = make([]int, d)
	inTree := make([]bool, d)
	bestEdge := make([]float64, d)
	bestFrom := make([]int, d)
	for i := range bestEdge {
		bestEdge[i] = math.Inf(-1)
		bestFrom[i] = -1
		net.parent[i] = -1
	}
	inTree[0] = true
	net.order = []int{0}
	for i := 1; i < d; i++ {
		bestEdge[i] = mi[0][i]
		bestFrom[i] = 0
	}
	for len(net.order) < d {
		pick, pickV := -1, math.Inf(-1)
		for i := 0; i < d; i++ {
			if !inTree[i] && bestEdge[i] > pickV {
				pick, pickV = i, bestEdge[i]
			}
		}
		inTree[pick] = true
		net.parent[pick] = bestFrom[pick]
		net.order = append(net.order, pick)
		for i := 0; i < d; i++ {
			if !inTree[i] && mi[pick][i] > bestEdge[i] {
				bestEdge[i] = mi[pick][i]
				bestFrom[i] = pick
			}
		}
	}

	// Root marginal and CPTs with Laplace smoothing.
	rootSize := net.domains[0].size()
	net.rootProb = make([]float64, rootSize)
	for r := range bins {
		net.rootProb[bins[r][0]] += wts[r]
	}
	normalizeWithSmoothing(net.rootProb, opts.Laplace)

	net.cpt = make([][]float64, d)
	for _, i := range net.order[1:] {
		p := net.parent[i]
		si, sp := net.domains[i].size(), net.domains[p].size()
		cpt := make([]float64, sp*si)
		for r := range bins {
			cpt[bins[r][p]*si+bins[r][i]] += wts[r]
		}
		for pb := 0; pb < sp; pb++ {
			normalizeWithSmoothing(cpt[pb*si:(pb+1)*si], opts.Laplace)
		}
		net.cpt[i] = cpt
	}
	return net, nil
}

func normalizeWithSmoothing(p []float64, laplace float64) {
	var s float64
	for i := range p {
		p[i] += laplace
		s += p[i]
	}
	for i := range p {
		p[i] /= s
	}
}

func mutualInfo(bins [][]int, wts []float64, i, j, si, sj int, total float64) float64 {
	joint := make([]float64, si*sj)
	pi := make([]float64, si)
	pj := make([]float64, sj)
	for r, br := range bins {
		w := wts[r] / total
		joint[br[i]*sj+br[j]] += w
		pi[br[i]] += w
		pj[br[j]] += w
	}
	var m float64
	for a := 0; a < si; a++ {
		for b := 0; b < sj; b++ {
			p := joint[a*sj+b]
			if p > 0 && pi[a] > 0 && pj[b] > 0 {
				m += p * math.Log(p/(pi[a]*pj[b]))
			}
		}
	}
	return m
}

// Total returns the population weight the model was fit to.
func (n *Network) Total() float64 { return n.total }

func sampleIndex(p []float64, rng *rand.Rand) int {
	u := rng.Float64()
	var acc float64
	for i, pi := range p {
		acc += pi
		if u <= acc {
			return i
		}
	}
	return len(p) - 1
}

// EstimateProb estimates P(pred) by forward sampling k tuples; COUNT
// estimates are EstimateProb × Total.
func (n *Network) EstimateProb(pred func(row []value.Value) (bool, error), k int, rng *rand.Rand) (float64, error) {
	if k <= 0 {
		k = 10000
	}
	hits := 0
	for r := 0; r < k; r++ {
		binsRow := make([]int, len(n.domains))
		for _, i := range n.order {
			var p []float64
			if n.parent[i] < 0 {
				p = n.rootProb
			} else {
				si := n.domains[i].size()
				pb := binsRow[n.parent[i]]
				p = n.cpt[i][pb*si : (pb+1)*si]
			}
			binsRow[i] = sampleIndex(p, rng)
		}
		row := make([]value.Value, len(n.domains))
		for i, b := range binsRow {
			row[i] = n.domains[i].representative(b, n.kinds[i])
		}
		ok, err := pred(row)
		if err != nil {
			return 0, err
		}
		if ok {
			hits++
		}
	}
	return float64(hits) / float64(k), nil
}
