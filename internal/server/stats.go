package server

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"time"

	"mosaic/internal/core"
	"mosaic/internal/sql"
	"mosaic/internal/wire"
)

// latencyBuckets are the histogram upper bounds. The last bucket is
// unbounded (+Inf).
var latencyBuckets = []time.Duration{
	500 * time.Microsecond,
	1 * time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	2500 * time.Millisecond,
	10 * time.Second,
}

// histogram is a fixed-bucket latency histogram with lock-free recording.
type histogram struct {
	counts [9]atomic.Int64 // len(latencyBuckets)+1, last = +Inf
	sumNs  atomic.Int64
	n      atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if d <= latencyBuckets[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.n.Add(1)
}

func (h *histogram) snapshot() wire.HistogramSnapshot {
	out := wire.HistogramSnapshot{Buckets: make(map[string]int64, len(latencyBuckets)+1)}
	for i := range h.counts {
		label := "+Inf"
		if i < len(latencyBuckets) {
			label = "le_" + strings.ReplaceAll(latencyBuckets[i].String(), ".", "_")
		}
		out.Buckets[label] = h.counts[i].Load()
	}
	out.Count = h.n.Load()
	if n := out.Count; n > 0 {
		out.MeanMs = float64(h.sumNs.Load()) / float64(n) / 1e6
	}
	return out
}

// ewmaAlphaInv is the inverse smoothing factor of the per-class latency
// EWMA (α = 1/8): slow enough that one outlier does not trip the shedder,
// fast enough to track a saturation within a handful of requests.
const ewmaAlphaInv = 8

// classStats aggregates one priority class's admission counters, latency
// histogram, and the EWMA latency estimate the shedder consults.
type classStats struct {
	admitted atomic.Int64 // granted an execution slot
	shed     atomic.Int64 // refused up front: deadline unmeetable (503 + Retry-After)
	rejected atomic.Int64 // no slot within the deadline (503 + Retry-After)
	timeouts atomic.Int64 // admitted but deadline expired mid-execution (504)
	ewmaNs   atomic.Int64 // EWMA of completed-request latency
	latency  histogram
}

// observe records one completed request's latency into the histogram and the
// EWMA estimate.
func (cs *classStats) observe(d time.Duration) {
	cs.latency.observe(d)
	for {
		old := cs.ewmaNs.Load()
		nw := int64(d)
		if old != 0 {
			nw = old + (int64(d)-old)/ewmaAlphaInv
		}
		if cs.ewmaNs.CompareAndSwap(old, nw) {
			return
		}
	}
}

// estimate returns the current EWMA latency estimate (0 = no data yet).
func (cs *classStats) estimate() time.Duration {
	return time.Duration(cs.ewmaNs.Load())
}

// admissionStats are the kernel's counters: admission accounting across
// classes and per class.
type admissionStats struct {
	rejected atomic.Int64 // admission-gate rejections (all classes)
	shed     atomic.Int64 // deadline-unmeetable sheds (all classes)
	timeouts atomic.Int64 // per-request deadline expiries (all classes)
	inflight atomic.Int64
	classes  [numClasses]classStats
}

// recordShed counts one up-front shed for cl.
func (a *admissionStats) recordShed(cl Class) {
	a.shed.Add(1)
	a.classes[cl].shed.Add(1)
}

// recordRejected counts one admission-gate rejection for cl.
func (a *admissionStats) recordRejected(cl Class) {
	a.rejected.Add(1)
	a.classes[cl].rejected.Add(1)
}

// recordTimeout counts one mid-execution deadline expiry for cl.
func (a *admissionStats) recordTimeout(cl Class) {
	a.timeouts.Add(1)
	a.classes[cl].timeouts.Add(1)
}

// stats aggregates a Server's per-visibility query counters and
// whole-server accounting beside its kernel's admission counters.
type stats struct {
	*admissionStats // the Server's Kernel's

	started time.Time

	queries   [4]atomic.Int64 // indexed by sql.Visibility
	errors    atomic.Int64
	execs     atomic.Int64
	explains  atomic.Int64
	partials  atomic.Int64 // /v1/partial plans served (fleet shard duty)
	cancelled atomic.Int64 // engine calls aborted by context cancellation

	latency [4]histogram // per visibility

	snapshots        atomic.Int64
	lastSnapshotUnix atomic.Int64
	lastSnapshotSize atomic.Int64
}

func newStats(k *Kernel) *stats { return &stats{admissionStats: k.counts, started: time.Now()} }

func (s *stats) recordQuery(vis sql.Visibility, d time.Duration, err error) {
	if err != nil {
		if isCancellation(err) {
			s.cancelled.Add(1)
		} else {
			s.errors.Add(1)
		}
		return
	}
	s.queries[vis].Add(1)
	s.latency[vis].observe(d)
}

// recordCancelled counts err when it is a context cancellation (non-query
// paths call it; query errors route through recordQuery).
func (s *stats) recordCancelled(err error) {
	if isCancellation(err) {
		s.cancelled.Add(1)
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (s *stats) snapshot(plans *core.PlanCache) wire.StatsResponse {
	ps := plans.Stats()
	out := wire.StatsResponse{
		UptimeSecs:       time.Since(s.started).Seconds(),
		Execs:            s.execs.Load(),
		Explains:         s.explains.Load(),
		Partials:         s.partials.Load(),
		QueryErrors:      s.errors.Load(),
		Cancelled:        s.cancelled.Load(),
		Visibilities:     make(map[string]wire.VisibilityStats, 4),
		Snapshots:        s.snapshots.Load(),
		LastSnapshotUnix: s.lastSnapshotUnix.Load(),
		LastSnapshotSize: s.lastSnapshotSize.Load(),
		PlanCache: &wire.PlanCacheStats{
			Hits:      ps.Hits,
			Misses:    ps.Misses,
			Evictions: ps.Evictions,
			Size:      ps.Size,
			Capacity:  ps.Capacity,
		},
	}
	for vis := sql.VisibilityDefault; vis <= sql.VisibilityOpen; vis++ {
		name := strings.ToLower(vis.String())
		out.Visibilities[name] = wire.VisibilityStats{
			Queries: s.queries[vis].Load(),
			Latency: s.latency[vis].snapshot(),
		}
	}
	return out
}
