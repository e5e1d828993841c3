package main

// Reference speed.
//
// The sandbox this benchmark runs in shares its memory system with other
// tenants of the host. For most hours of a day that slows memory-bound code —
// which Mosaic is — by anything up to 40 %, for minutes at a time, while a
// register-only loop hardly notices. Nothing a run does to itself (more
// samples, medians, one runnable goroutine, memory kept mapped) removes
// that, because the state outlasts a run: as measured, ten runs of the same
// binary spread by 10–30 % on most metrics (NOISE.md).
//
// So the benchmark also times a probe — summing 8 MiB of a buffer it
// allocates before anything else and never touches otherwise — before every
// timed operation and around every set-up and concurrent phase, some 400
// times a run, and divides every time it reports by how much slower than a
// pinned constant the median probe ran. The probe allocates nothing and
// reads memory the product never sees, so its speed depends on the machine
// alone. Across runs its time tracks the end-to-end metrics with
// correlations of 0.8 to 0.99 on all four workloads, and dividing by it cuts
// their spread by half or more (NOISE.md has both columns). The report keeps the
// samples as measured, and the factor.

import "time"

const (
	probeWindow  = 2 << 20 // int32s summed per probe: 8 MiB, far more than a core's own caches
	probeWindows = 8       // the probe cycles through them, so none is still cached when its turn comes again

	// probeNominalS is the probe's time on the 2-core reference sandbox
	// (Xeon @ 2.1 GHz) in a good hour. It only fixes the unit — "seconds at
	// reference speed" — and cancels out of every comparison between runs.
	probeNominalS = 0.0019
)

var (
	probeBuf  []int32
	probeNext int
	probeS    []float64 // every probe of the run, in seconds
	probeSink int32
)

// initProbe allocates the probe's buffer and touches all of it.
func initProbe() {
	probeBuf = make([]int32, probeWindow*probeWindows)
	for i := range probeBuf {
		probeBuf[i] = int32(i)
	}
	probeS = make([]float64, 0, 1024)
}

// probeBytes is what the probe's buffer adds to the heap.
func probeBytes() uint64 { return uint64(len(probeBuf)) * 4 }

// probe times one pass over the next window (about 2 ms) and records it.
func probe() {
	if probeBuf == nil {
		initProbe()
	}
	w := probeBuf[probeNext*probeWindow : (probeNext+1)*probeWindow]
	probeNext = (probeNext + 1) % probeWindows
	start := time.Now()
	var sum int32
	for _, v := range w {
		sum += v
	}
	probeSink += sum
	probeS = append(probeS, time.Since(start).Seconds())
}

// slowdown is how much slower than the reference the machine ran during the
// run: one factor for the whole run, from the median of all its probes.
func slowdown() float64 { return quantile(probeS, 0.5) / probeNominalS }

// atReferenceSpeed converts the time- and rate-valued metrics among defs
// from as-measured to reference speed; counts, ratios and sizes stay.
func atReferenceSpeed(defs []metricDef, values map[string]float64, slow float64) {
	for _, d := range defs {
		switch d.unit {
		case "us", "ms", "s":
			values[d.name] /= slow
		case "1/s":
			values[d.name] *= slow
		}
	}
}
