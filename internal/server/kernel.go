package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mosaic/internal/sql"
	"mosaic/internal/wire"
)

// Kernel is the one request path of every Mosaic front door: the shard
// Server and the fleet coordinator (internal/coord) both answer their /v1
// endpoints through it. It owns admission, the per-class stats, the shed
// margin and the request timeout, and runs every request through the same
// steps:
//
//	decode   — the JSON body under wire.MaxBodyBytes: 413 beyond, 400 malformed;
//	class    — wire.PriorityHeader, else the endpoint's default: 400 if malformed;
//	deadline — wire.DeadlineHeader intersected with the request timeout;
//	shed     — 503 + Retry-After before any work when the budget is spent,
//	           or the class's EWMA latency estimate × margin exceeds it;
//	admit    — a class slot, or 503 + Retry-After when none frees in time;
//	run      — the endpoint's Call on its own goroutine, under the deadline;
//	           a panic in it is recovered and answered as a 500;
//	reply    — the Call's body or StatusError, or 504 when the deadline
//	           expired first. The Call's context is cancelled, so its work
//	           unwinds and the slot frees.
type Kernel struct {
	timeout time.Duration
	adm     *admission
	counts  *admissionStats
	qos     atomic.Pointer[QoSConfig]
}

// NewKernel builds a kernel admitting under q (zero fields take their
// defaults) with requestTimeout bounding every request; ≤ 0 means 30s.
func NewKernel(q QoSConfig, requestTimeout time.Duration) *Kernel {
	if requestTimeout <= 0 {
		requestTimeout = 30 * time.Second
	}
	k := &Kernel{timeout: requestTimeout, adm: &admission{}, counts: &admissionStats{}}
	k.ApplyQoS(q)
	return k
}

// ApplyQoS swaps the admission limits and shed threshold at runtime without
// dropping in-flight requests: work already admitted runs to completion, a
// raised limit wakes waiters immediately, a lowered one only throttles new
// admissions. mosaic-serve calls this on SIGHUP.
func (k *Kernel) ApplyQoS(q QoSConfig) {
	q = q.withDefaults()
	k.qos.Store(&q)
	k.adm.setLimits(q)
}

// QoS returns the currently effective admission configuration.
func (k *Kernel) QoS() QoSConfig { return *k.qos.Load() }

// StatusError is a refusal as the kernel answers it: the HTTP status, the
// wire.ErrorResponse message, and a Retry-After hint when RetryAfter > 0
// (rounded up to whole seconds).
type StatusError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string { return e.Msg }

// Errorf builds a StatusError without a Retry-After hint.
func Errorf(status int, format string, args ...any) *StatusError {
	return &StatusError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// Call is an admitted request's work. It returns the 200 body, or an error
// the kernel answers with: a *StatusError as it says, anything else as a
// 500. It never touches the ResponseWriter — the 504 path may already have
// written it.
type Call func(ctx context.Context) (any, error)

// Serve answers one request through the kernel. method is the endpoint's
// only method; body, when non-nil, receives the decoded JSON request body.
// prepare validates the decoded request and returns its default class and
// its Call; an error from it is answered before admission.
func (k *Kernel) Serve(w http.ResponseWriter, r *http.Request, method string, body any, prepare func() (Class, Call, error)) {
	if r.Method != method {
		writeError(w, http.StatusMethodNotAllowed, "%s only", method)
		return
	}
	if body != nil {
		if err := decode(w, r, body); err != nil {
			reply(w, nil, err)
			return
		}
	}
	def, call, err := prepare()
	if err != nil {
		reply(w, nil, err)
		return
	}
	cl, err := classFromHeader(r, def)
	if err != nil {
		reply(w, nil, err)
		return
	}
	k.run(w, r, cl, call)
}

// run takes a request of class cl from the deadline step on: shed, admit,
// call, reply.
func (k *Kernel) run(w http.ResponseWriter, r *http.Request, cl Class, call Call) {
	timeout := k.timeout
	budget, ok, err := deadlineFromHeader(r)
	if err != nil {
		reply(w, nil, err)
		return
	}
	if ok {
		if budget <= 0 {
			k.counts.recordShed(cl)
			reply(w, nil, k.unavailable(cl, "deadline already expired (budget %s); shed before execution", budget))
			return
		}
		timeout = min(timeout, budget)
	}
	// Estimate-based shedding: admitting work whose deadline the recent
	// latency EWMA says cannot be met only burns CPU toward a guaranteed
	// 504 — refuse it up front instead, with a Retry-After hint.
	cs := &k.counts.classes[cl]
	if margin := k.qos.Load().ShedMargin; margin > 0 {
		if est := cs.estimate(); est > 0 && time.Duration(float64(est)*margin) > timeout {
			k.counts.recordShed(cl)
			reply(w, nil, k.unavailable(cl, "%s budget %s below the estimated latency %s; shed before execution",
				cl, timeout.Round(time.Millisecond), est.Round(time.Millisecond)))
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if !k.adm.acquire(ctx, cl) {
		k.counts.recordRejected(cl)
		reply(w, nil, k.unavailable(cl, "server overloaded: no %s slot within %s", cl, timeout))
		return
	}
	cs.admitted.Add(1)
	k.counts.inflight.Add(1)
	start := time.Now()
	type outcome struct {
		body any
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		defer k.adm.release(cl)
		defer k.counts.inflight.Add(-1)
		// A panic in the Call fails this request alone: it is answered as a
		// 500 naming the endpoint, and the process keeps serving.
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{nil, Errorf(http.StatusInternalServerError, "%s %s: internal error: panic: %v", r.Method, r.URL.Path, p)}
			}
		}()
		body, err := call(ctx)
		done <- outcome{body, err}
	}()
	select {
	case out := <-done:
		// A Call that failed after its context ended failed because it
		// ended: answer the expiry or the cancellation, not the Call's
		// error (a shard call cut off by the deadline is no shard failure).
		if out.err == nil || ctx.Err() == nil {
			cs.observe(time.Since(start))
			reply(w, out.body, out.err)
			return
		}
	case <-ctx.Done():
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		// The class estimate must reflect expiries too, or a saturated
		// class keeps a rosy EWMA and the shedder never engages. Client
		// cancellations must NOT feed it: a cancel storm of fast aborts
		// would drag the EWMA down and disarm the shedder exactly when
		// real completions are slow.
		cs.observe(time.Since(start))
		k.counts.recordTimeout(cl)
		writeError(w, http.StatusGatewayTimeout, "request exceeded %s (the statement was cancelled server-side)", timeout)
		return
	}
	// Client went away: nobody reads the response; the engine-side
	// unwinding records the cancellation (recordQuery/recordCancelled).
	writeError(w, http.StatusServiceUnavailable, "client cancelled")
}

// unavailable is the 503 of the shed and rejected outcomes. Its Retry-After
// is roughly one expected request duration of the class, at least a second.
func (k *Kernel) unavailable(cl Class, format string, args ...any) *StatusError {
	e := Errorf(http.StatusServiceUnavailable, format, args...)
	e.RetryAfter = max(k.counts.classes[cl].estimate(), time.Second)
	return e
}

// AdmissionStats reports the kernel's /statsz block.
func (k *Kernel) AdmissionStats() wire.AdmissionStats {
	c := k.counts
	out := wire.AdmissionStats{
		Inflight: c.inflight.Load(),
		Rejected: c.rejected.Load(),
		Shed:     c.shed.Load(),
		Timeouts: c.timeouts.Load(),
		Classes:  make(map[string]wire.ClassStats, numClasses),
	}
	for cl := Interactive; cl < numClasses; cl++ {
		cs := &c.classes[cl]
		out.Classes[cl.String()] = wire.ClassStats{
			Admitted:   cs.admitted.Load(),
			Shed:       cs.shed.Load(),
			Rejected:   cs.rejected.Load(),
			Timeouts:   cs.timeouts.Load(),
			Inflight:   int64(k.adm.inflightCount(cl)),
			QueueDepth: int64(k.adm.queueDepth(cl)),
			EWMAMs:     float64(cs.ewmaNs.Load()) / 1e6,
			Latency:    cs.latency.snapshot(),
		}
	}
	return out
}

// decode reads a JSON request body under wire.MaxBodyBytes.
func decode(w http.ResponseWriter, r *http.Request, into any) error {
	body := http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return Errorf(http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", mbe.Limit)
		}
		return Errorf(http.StatusBadRequest, "bad request body: %v", err)
	}
	return nil
}

// BindParams decodes a request's wire parameters and binds them into sel's
// placeholders; a failure is a 400.
func BindParams(sel *sql.Select, params []wire.Cell) (*sql.Select, error) {
	vals, err := wire.DecodeValues(params)
	if err == nil {
		sel, err = sql.BindParams(sel, vals)
	}
	if err != nil {
		return nil, Errorf(http.StatusBadRequest, "%v", err)
	}
	return sel, nil
}

// WriteJSON answers status with body as JSON.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, wire.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// reply answers a Call's outcome: body as 200 when err is nil, else err as
// its StatusError (a 500 for any other error).
func reply(w http.ResponseWriter, body any, err error) {
	if err == nil {
		WriteJSON(w, http.StatusOK, body)
		return
	}
	se := Errorf(http.StatusInternalServerError, "%v", err)
	errors.As(err, &se)
	if se.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(se.RetryAfter.Seconds()))))
	}
	writeError(w, se.Status, "%s", se.Msg)
}
