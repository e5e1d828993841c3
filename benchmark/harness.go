package main

// The block runner shared by the four workloads, and the rules that make its
// numbers repeat (README.md, "Noise rules").

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// op is one closed-loop operation. run executes it for the given client and
// verifies the answer; any error (refused, failed, wrong answer) is a failed
// operation and contributes no latency.
type op struct {
	shape string // label in traces and failure messages
	run   func(client int) error
}

// block is one unit of fixed work: a write burst with its cold reads, a
// serial read phase (one client, latency) and a concurrent read phase (one
// list per client, throughput). The cold reads follow the last len(colds)
// writes one to one: a workload whose cold read is cheap takes one after
// every write batch, one whose cold read retrains a model takes one after
// the burst.
type block struct {
	writes []op
	colds  []op
	serial []op
	conc   [][]op
}

// workload is one of the four benchmark workloads.
type workload interface {
	// generate builds every input from the seed, and the expected answer of
	// every read of every block. It runs once, before any clock starts;
	// nothing but the system under test works during the measured phase.
	generate(seed int64, sz sizing) error
	// setup builds the system under test, from mosaic.Open to "first block
	// may start", including one warm-up pass over every distinct read. It
	// may run several times; each call replaces the previous system.
	setup(tr *tracer) error
	// block returns the operations of block b. Block contents depend only
	// on the seed and b. tr is the run's tracer (nil in an untraced run),
	// for operations that record spans of their own.
	block(b int, tr *tracer) block
	// layers replays block 0's operations through each layer's public
	// functions and returns the workload's per-layer metrics.
	layers(tr *tracer) (map[string]float64, error)
	// dataSizes describes the generated inputs for the report header.
	dataSizes() map[string]int
	// close stops everything setup started and waits for it.
	close()
}

// sizing scales a workload: full size for measuring, smoke size for the
// tier-1 test.
type sizing struct {
	smoke  bool
	blocks int // blocks in the measured phase
}

// clients is C, the concurrent-phase client count: GOMAXPROCS, which main
// sets to min(nproc, 4). Never more runnable clients than cores.
func clients() int { return runtime.GOMAXPROCS(0) }

// measurement is what the measured phase collects.
type measurement struct {
	attempted, failed int
	failures          []string  // first few failure messages
	readS             []float64 // serial-phase read latencies, pooled over blocks
	tracedReadS       []float64 // the traced half of them (trace mode only)
	writeS            []float64 // write-batch latencies, pooled over blocks
	coldS             []float64 // cold reads, pooled over blocks
	opsPerS           []float64 // concurrent phase, one value per block
	heapMB            float64
}

func (m *measurement) fail(o op, err error) {
	m.failed++
	if len(m.failures) < 8 {
		m.failures = append(m.failures, fmt.Sprintf("%s: %v", o.shape, err))
	}
}

// timed runs o once for client 0 and returns its latency; ok is false when
// it failed. With a tracer the operation is also recorded as a span.
func (m *measurement) timed(o op, tr *tracer, kind string, opID int) (secs float64, ok bool) {
	m.attempted++
	id := tr.start("op."+kind+"."+o.shape, -1, opID, false)
	start := time.Now()
	err := o.run(0)
	secs = time.Since(start).Seconds()
	tr.end(id)
	if err != nil {
		m.fail(o, err)
		return 0, false
	}
	return secs, true
}

// gcEvery is how many timed operations run between two collections in the
// latency phases of a block.
const gcEvery = 10

// runBlocks runs the measured phase. With trace on, every write and cold
// read and every other serial read records a span, so that traced and
// untraced read latency can be compared within one run; end-to-end metrics
// never come from a traced run.
//
// Latency is measured with the collector held off: writes, the cold read
// and the serial reads run with GC disabled, and a full collection runs
// every gcEvery operations and between the phases, outside the clock. With the collector on, which
// reads a collection happens to overlap decides the median (README.md,
// "Noise rules", 6); its cost still shows in ops_per_s, whose concurrent
// phase runs with the collector on, and in live_heap_mb.
func runBlocks(w workload, sz sizing, tr *tracer) *measurement {
	m := &measurement{}
	opID := 0
	sinceGC := 0
	latency := func(o op, btr *tracer, kind string) (float64, bool) {
		if sinceGC == gcEvery {
			runtime.GC()
			sinceGC = 0
		}
		sinceGC++
		opID++
		probe()
		return m.timed(o, btr, kind, opID)
	}
	for b := 0; b < sz.blocks; b++ {
		blk := w.block(b, tr)
		runtime.GC() // between blocks, outside every clock
		sinceGC = 0
		gcPercent := debug.SetGCPercent(-1)
		for i, o := range blk.writes {
			if s, ok := latency(o, tr, "write"); ok {
				m.writeS = append(m.writeS, s)
			}
			if c := i - (len(blk.writes) - len(blk.colds)); c >= 0 {
				if s, ok := latency(blk.colds[c], tr, "cold"); ok {
					m.coldS = append(m.coldS, s)
				}
			}
		}
		// The serial phase starts from a collected heap: the reads that would
		// otherwise share a collection cycle with the burst (training leaves a
		// lot of garbage) run slower than the rest, and when they are about a
		// tenth of a block's reads the 90th percentile hops between the two
		// kinds from run to run.
		runtime.GC()
		sinceGC = 0
		for i, o := range blk.serial {
			if tr != nil && i%2 == 1 {
				if s, ok := latency(o, tr, "read"); ok {
					m.tracedReadS = append(m.tracedReadS, s)
				}
			} else if s, ok := latency(o, nil, "read"); ok {
				m.readS = append(m.readS, s)
			}
		}
		runtime.GC()
		debug.SetGCPercent(gcPercent)
		probe()
		m.concurrent(blk.conc)
		probe()
	}
	quiesce()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapAlloc-probeBytes()) / (1 << 20) // the product's heap, not the probe's buffer
	return m
}

// concurrent runs one block's concurrent phase: C clients, each working
// through its own list, started together; operations completed ÷ wall time.
func (m *measurement) concurrent(lists [][]op) {
	type failure struct {
		o   op
		err error
	}
	failed := make([][]failure, len(lists))
	var wg sync.WaitGroup
	start := time.Now()
	for c, list := range lists {
		wg.Add(1)
		go func(c int, list []op) {
			defer wg.Done()
			for _, o := range list {
				if err := o.run(c); err != nil {
					failed[c] = append(failed[c], failure{o, err})
				}
			}
		}(c, list)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	done := 0
	for c, list := range lists {
		m.attempted += len(list)
		done += len(list) - len(failed[c])
		for _, f := range failed[c] {
			m.fail(f.o, f.err)
		}
	}
	m.opsPerS = append(m.opsPerS, float64(done)/wall)
}

// quiesce leaves only live data on the heap: every client has stopped, idle
// HTTP connections are closed, and two collections have run (the second
// frees what the first one's finalizers released).
func quiesce() {
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	runtime.GC()
	runtime.GC()
}
