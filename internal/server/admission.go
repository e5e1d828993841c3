package server

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mosaic/internal/sql"
	"mosaic/internal/wire"
)

// Class is a request's admission priority class. Interactive requests
// (cheap CLOSED / SEMI-OPEN lookups by default) must never starve behind
// batch work (OPEN model-training queries, bulk exec scripts): the admission
// controller caps batch concurrency below the total slot count and hands
// freed slots to interactive waiters first.
type Class int

const (
	Interactive Class = iota
	Batch
	numClasses
)

func (c Class) String() string {
	if c == Batch {
		return "batch"
	}
	return "interactive"
}

// QueryClass is a query's default class: OPEN queries train and sample
// generative models — batch; CLOSED and SEMI-OPEN answer from stored
// samples — interactive.
func QueryClass(vis sql.Visibility) Class {
	if vis == sql.VisibilityOpen {
		return Batch
	}
	return Interactive
}

// classFromHeader resolves an explicit wire.PriorityHeader, falling back to
// def.
func classFromHeader(r *http.Request, def Class) (Class, error) {
	raw := r.Header.Get(wire.PriorityHeader)
	switch strings.ToLower(raw) {
	case "":
		return def, nil
	case "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	default:
		return def, Errorf(http.StatusBadRequest, "bad %s %q: want interactive or batch", wire.PriorityHeader, raw)
	}
}

// deadlineFromHeader parses a propagated wire.DeadlineHeader. ok reports
// whether the header was present; a present-but-unparseable header is a
// 400. Zero or negative budgets are valid (and doomed — the kernel sheds).
func deadlineFromHeader(r *http.Request) (time.Duration, bool, error) {
	raw := r.Header.Get(wire.DeadlineHeader)
	if raw == "" {
		return 0, false, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, false, Errorf(http.StatusBadRequest, "bad %s %q: want integer milliseconds", wire.DeadlineHeader, raw)
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}

// QoSConfig is the live-reloadable slice of the server configuration: the
// admission limits and the shed threshold. ApplyQoS swaps it atomically —
// in-flight requests are never dropped (a shrunk limit only throttles new
// admissions; work already admitted runs to completion).
type QoSConfig struct {
	// MaxConcurrent is the total execution slot count; 0 means 64.
	MaxConcurrent int `json:"max_concurrent"`
	// BatchMaxConcurrent caps batch-class slots. It is clamped below
	// MaxConcurrent so batch work can never occupy every slot; 0 means
	// max(1, MaxConcurrent/2).
	BatchMaxConcurrent int `json:"batch_max_concurrent"`
	// ShedMargin scales the per-class EWMA latency estimate when deciding
	// whether a deadline is worth admitting: shed when estimate×margin
	// exceeds the remaining budget. 0 means 1.0; negative disables
	// estimate-based shedding (already-expired deadlines still shed).
	ShedMargin float64 `json:"shed_margin"`
}

func (q QoSConfig) withDefaults() QoSConfig {
	if q.MaxConcurrent <= 0 {
		q.MaxConcurrent = 64
	}
	if q.BatchMaxConcurrent <= 0 {
		q.BatchMaxConcurrent = q.MaxConcurrent / 2
	}
	if q.BatchMaxConcurrent < 1 {
		q.BatchMaxConcurrent = 1
	}
	// Batch may never own every slot: interactive work must always have
	// headroom. The sole exception is MaxConcurrent == 1, where there is
	// only one slot to share.
	if q.BatchMaxConcurrent >= q.MaxConcurrent && q.MaxConcurrent > 1 {
		q.BatchMaxConcurrent = q.MaxConcurrent - 1
	}
	if q.ShedMargin == 0 {
		q.ShedMargin = 1.0
	}
	return q
}

// admission is a priority-aware two-class admission controller. Unlike a
// channel semaphore its limits are mutable at runtime (SIGHUP reload), and
// freed slots go to interactive waiters before batch waiters — the priority
// inversion a single shared gate cannot avoid.
type admission struct {
	mu       sync.Mutex
	total    int
	limit    [numClasses]int
	inflight [numClasses]int
	waiting  [numClasses][]chan struct{}
}

// setLimits swaps the concurrency limits (q has its defaults applied) and
// wakes any waiters the new limits can now admit. In-flight counts above a
// shrunk limit simply drain naturally; nothing is interrupted.
func (a *admission) setLimits(q QoSConfig) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.total = q.MaxConcurrent
	a.limit[Interactive] = q.MaxConcurrent
	a.limit[Batch] = q.BatchMaxConcurrent
	a.grantLocked()
}

func (a *admission) canAdmitLocked(cl Class) bool {
	return a.inflight[Interactive]+a.inflight[Batch] < a.total &&
		a.inflight[cl] < a.limit[cl]
}

// grantLocked hands free slots to waiters, interactive first, in FIFO order
// within a class. The slot transfers under the lock (inflight is incremented
// here, not by the waiter), so a granted waiter that has concurrently timed
// out can detect the grant and release it.
func (a *admission) grantLocked() {
	for {
		cl := Interactive
		if len(a.waiting[cl]) == 0 || !a.canAdmitLocked(cl) {
			cl = Batch
			if len(a.waiting[cl]) == 0 || !a.canAdmitLocked(cl) {
				return
			}
		}
		ch := a.waiting[cl][0]
		a.waiting[cl] = a.waiting[cl][1:]
		a.inflight[cl]++
		ch <- struct{}{} // buffered: never blocks
	}
}

// acquire reserves a slot for cl, waiting until ctx expires. It reports
// whether the slot was granted; the caller must release(cl) on true.
func (a *admission) acquire(ctx context.Context, cl Class) bool {
	a.mu.Lock()
	if a.canAdmitLocked(cl) {
		a.inflight[cl]++
		a.mu.Unlock()
		return true
	}
	ch := make(chan struct{}, 1)
	a.waiting[cl] = append(a.waiting[cl], ch)
	a.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		a.mu.Lock()
		removed := false
		for i, w := range a.waiting[cl] {
			if w == ch {
				a.waiting[cl] = append(a.waiting[cl][:i], a.waiting[cl][i+1:]...)
				removed = true
				break
			}
		}
		a.mu.Unlock()
		if !removed {
			// A grant raced the cancellation: the slot is ours (the granter
			// already incremented inflight and buffered the signal under the
			// lock) — hand it back.
			<-ch
			a.release(cl)
		}
		return false
	}
}

// release frees a slot previously acquired for cl and re-grants.
func (a *admission) release(cl Class) {
	a.mu.Lock()
	a.inflight[cl]--
	a.grantLocked()
	a.mu.Unlock()
}

// queueDepth reports how many requests of cl are waiting for a slot.
func (a *admission) queueDepth(cl Class) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiting[cl])
}

// inflightCount reports how many requests of cl hold a slot.
func (a *admission) inflightCount(cl Class) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight[cl]
}
