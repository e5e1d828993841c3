// Package catalog is Mosaic's registry of relations: auxiliary tables,
// population relations, sample relations, and population metadata
// (marginals). It enforces the paper's data-model rules: a single global
// population, non-global populations defined as views over it, and samples
// drawn from it with optional mechanisms (Sec 3.1).
package catalog

import (
	"fmt"
	"strings"
	"sync"

	"mosaic/internal/expr"
	"mosaic/internal/marginal"
	"mosaic/internal/mechanism"
	"mosaic/internal/schema"
	"mosaic/internal/table"
)

// Population is a (possibly global) population relation: a set of tuples
// that could exist but are not fully known to Mosaic.
type Population struct {
	Name   string
	Global bool
	Schema *schema.Schema
	// From/Where define a non-global population as a view over the global
	// population (CREATE POPULATION ... AS SELECT ... FROM gp WHERE pred).
	From  string
	Where expr.Expr
	// Marginals is the population's ground-truth metadata, keyed by
	// metadata name.
	Marginals map[string]*marginal.Marginal
	// marginalOrder preserves registration order for deterministic plans.
	marginalOrder []string
}

// MarginalList returns the population's marginals in registration order.
func (p *Population) MarginalList() []*marginal.Marginal {
	out := make([]*marginal.Marginal, 0, len(p.marginalOrder))
	for _, n := range p.marginalOrder {
		out = append(out, p.Marginals[n])
	}
	return out
}

// Sample is a sample relation: tuples that do exist in the global population
// and that Mosaic stores, with per-tuple weights and an optional mechanism.
type Sample struct {
	Name string
	// Table holds the tuples and their weights. The weight vector is the
	// user's (UPDATE SAMPLE writes it); CLOSED answers, IPF seeds and dumps
	// read it from here, and no other copy exists.
	Table *table.Table
	// From is the population the sample was declared over (the GP).
	From  string
	Where expr.Expr
	// Mechanism is non-nil when the sampling mechanism is known. Replace it
	// through SetMechanism, which also advances MechanismVersion.
	Mechanism   mechanism.Mechanism
	mechVersion uint64
}

// SetMechanism installs or replaces the sample's mechanism. Mechanisms hold
// maps and expressions and cannot be compared, so each replacement advances
// a counter instead: state derived from the sample records the counter and
// is stale once it moves. Like table writes, it must not overlap readers.
func (s *Sample) SetMechanism(m mechanism.Mechanism) {
	s.Mechanism = m
	s.mechVersion++
}

// MechanismVersion counts the SetMechanism calls on this sample.
func (s *Sample) MechanismVersion() uint64 { return s.mechVersion }

// Catalog stores all relations. Methods are safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*table.Table
	pops   map[string]*Population
	samps  map[string]*Sample
	global string // name of the global population ("" when undeclared)
	// metaIndex maps metadata name -> population name for DROP METADATA.
	metaIndex map[string]string
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:    make(map[string]*table.Table),
		pops:      make(map[string]*Population),
		samps:     make(map[string]*Sample),
		metaIndex: make(map[string]string),
	}
}

func key(name string) string { return strings.ToLower(name) }

func (c *Catalog) nameTaken(name string) error {
	k := key(name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("catalog: relation %q already exists (table)", name)
	}
	if _, ok := c.pops[k]; ok {
		return fmt.Errorf("catalog: relation %q already exists (population)", name)
	}
	if _, ok := c.samps[k]; ok {
		return fmt.Errorf("catalog: relation %q already exists (sample)", name)
	}
	return nil
}

// --- auxiliary tables ---

// CreateTable registers a new auxiliary table.
func (c *Catalog) CreateTable(name string, s *schema.Schema) (*table.Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.nameTaken(name); err != nil {
		return nil, err
	}
	t := table.New(name, s)
	c.tables[key(name)] = t
	return t, nil
}

// RegisterTable adds an existing table under its own name.
func (c *Catalog) RegisterTable(t *table.Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.nameTaken(t.Name()); err != nil {
		return err
	}
	c.tables[key(t.Name())] = t
	return nil
}

// Table looks up an auxiliary table.
func (c *Catalog) Table(name string) (*table.Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	return t, ok
}

// --- populations ---

// CreateGlobalPopulation declares the global population. Only one may exist.
func (c *Catalog) CreateGlobalPopulation(name string, s *schema.Schema) (*Population, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.global != "" {
		return nil, fmt.Errorf("catalog: global population %q already declared", c.global)
	}
	if err := c.nameTaken(name); err != nil {
		return nil, err
	}
	p := &Population{Name: name, Global: true, Schema: s, Marginals: map[string]*marginal.Marginal{}}
	c.pops[key(name)] = p
	c.global = name
	return p, nil
}

// CreatePopulation declares a non-global population as a view over the GP.
func (c *Catalog) CreatePopulation(name, from string, where expr.Expr, attrs []string) (*Population, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.nameTaken(name); err != nil {
		return nil, err
	}
	gp, ok := c.pops[key(from)]
	if !ok {
		return nil, fmt.Errorf("catalog: population %q is not declared", from)
	}
	if !gp.Global {
		return nil, fmt.Errorf("catalog: populations must be defined over the global population, not %q", from)
	}
	var s *schema.Schema
	if len(attrs) == 0 {
		s = gp.Schema
	} else {
		ps, _, err := gp.Schema.Project(attrs)
		if err != nil {
			return nil, err
		}
		s = ps
	}
	// The predicate reads the global population's tuples: WEIGHT is one of
	// their attributes only when declared.
	if where != nil {
		for _, col := range where.Columns(nil) {
			if _, ok := gp.Schema.Index(col); !ok {
				return nil, fmt.Errorf("catalog: population %q: WHERE names %q, which is not an attribute of %q", name, col, gp.Name)
			}
		}
	}
	p := &Population{Name: name, Schema: s, From: gp.Name, Where: where, Marginals: map[string]*marginal.Marginal{}}
	c.pops[key(name)] = p
	return p, nil
}

// Population looks up a population.
func (c *Catalog) Population(name string) (*Population, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.pops[key(name)]
	return p, ok
}

// GlobalPopulation returns the declared global population, if any.
func (c *Catalog) GlobalPopulation() (*Population, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.global == "" {
		return nil, false
	}
	return c.pops[key(c.global)], true
}

// --- samples ---

// CreateSample registers a sample relation over population from.
func (c *Catalog) CreateSample(name, from string, where expr.Expr, s *schema.Schema, mech mechanism.Mechanism) (*Sample, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.nameTaken(name); err != nil {
		return nil, err
	}
	pop, ok := c.pops[key(from)]
	if !ok {
		return nil, fmt.Errorf("catalog: population %q is not declared", from)
	}
	if s == nil {
		s = pop.Schema
	}
	// Paper Sec 4 assumption 1: population attributes ⊆ sample attributes is
	// checked at query time; at declaration the sample schema must be a
	// subset of the population schema.
	if !pop.Schema.Contains(s) {
		return nil, fmt.Errorf("catalog: sample %q schema %s is not contained in population %q schema %s",
			name, s, from, pop.Schema)
	}
	sm := &Sample{Name: name, Table: table.New(name, s), From: pop.Name, Where: where, Mechanism: mech}
	c.samps[key(name)] = sm
	return sm, nil
}

// Sample looks up a sample.
func (c *Catalog) Sample(name string) (*Sample, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.samps[key(name)]
	return s, ok
}

// SamplesOf returns all samples declared over the given population, in name
// order-independent registration order.
func (c *Catalog) SamplesOf(pop string) []*Sample {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Sample
	for _, s := range c.samps {
		if strings.EqualFold(s.From, pop) {
			out = append(out, s)
		}
	}
	return out
}

// AllTables returns every auxiliary table (unordered).
func (c *Catalog) AllTables() []*table.Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*table.Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	return out
}

// AllPopulations returns every population (unordered).
func (c *Catalog) AllPopulations() []*Population {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Population, 0, len(c.pops))
	for _, p := range c.pops {
		out = append(out, p)
	}
	return out
}

// AllSamples returns every registered sample.
func (c *Catalog) AllSamples() []*Sample {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Sample, 0, len(c.samps))
	for _, s := range c.samps {
		out = append(out, s)
	}
	return out
}

// --- metadata ---

// AddMarginal attaches metadata to a population. The marginal's attributes
// must exist in the population schema.
func (c *Catalog) AddMarginal(pop string, m *marginal.Marginal) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pops[key(pop)]
	if !ok {
		return fmt.Errorf("catalog: population %q is not declared", pop)
	}
	for _, a := range m.Attrs {
		if _, ok := p.Schema.Index(a); !ok {
			return fmt.Errorf("catalog: marginal %s attribute %q not in population %q schema", m.Name, a, pop)
		}
	}
	if _, dup := c.metaIndex[key(m.Name)]; dup {
		return fmt.Errorf("catalog: metadata %q already exists", m.Name)
	}
	p.Marginals[m.Name] = m
	p.marginalOrder = append(p.marginalOrder, m.Name)
	c.metaIndex[key(m.Name)] = p.Name
	return nil
}

// Resolve reports what kind of relation a name refers to:
// "table", "population", "sample", or "" when unknown.
func (c *Catalog) Resolve(name string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	k := key(name)
	switch {
	case c.tables[k] != nil:
		return "table"
	case c.pops[k] != nil:
		return "population"
	case c.samps[k] != nil:
		return "sample"
	default:
		return ""
	}
}

// Drop removes a relation or metadata entry.
func (c *Catalog) Drop(kind, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	switch kind {
	case "TABLE":
		if _, ok := c.tables[k]; !ok {
			return fmt.Errorf("catalog: no table %q", name)
		}
		delete(c.tables, k)
	case "POPULATION":
		p, ok := c.pops[k]
		if !ok {
			return fmt.Errorf("catalog: no population %q", name)
		}
		if p.Global {
			for _, other := range c.pops {
				if !other.Global {
					return fmt.Errorf("catalog: cannot drop global population %q while population %q depends on it", name, other.Name)
				}
			}
			for _, s := range c.samps {
				if strings.EqualFold(s.From, name) {
					return fmt.Errorf("catalog: cannot drop global population %q while sample %q depends on it", name, s.Name)
				}
			}
			c.global = ""
		}
		for mn := range p.Marginals {
			delete(c.metaIndex, key(mn))
		}
		delete(c.pops, k)
	case "SAMPLE":
		if _, ok := c.samps[k]; !ok {
			return fmt.Errorf("catalog: no sample %q", name)
		}
		delete(c.samps, k)
	case "METADATA":
		popName, ok := c.metaIndex[k]
		if !ok {
			return fmt.Errorf("catalog: no metadata %q", name)
		}
		p := c.pops[key(popName)]
		for mn := range p.Marginals {
			if key(mn) == k {
				delete(p.Marginals, mn)
				for i, on := range p.marginalOrder {
					if key(on) == k {
						p.marginalOrder = append(p.marginalOrder[:i], p.marginalOrder[i+1:]...)
						break
					}
				}
				break
			}
		}
		delete(c.metaIndex, k)
	default:
		return fmt.Errorf("catalog: unknown relation kind %q", kind)
	}
	return nil
}
