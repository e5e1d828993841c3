package core

import "errors"

// ErrLogTruncated is returned by DeltaScript when the requested generation
// predates the bounded statement log's retention window or lies in the
// future. Either way the follower cannot catch up incrementally and must
// re-bootstrap from a full snapshot.
var ErrLogTruncated = errors.New("core: statement log truncated")

// LogStmt is one replicated mutation: the SQL that replays it — the exact
// source of a statement the primary executed, or the script that stores
// again the rows or the marginal a COPY or a Go-API write stored — and
// whether that execution failed. Followers replay failed statements too —
// a failed mutation can leave partial effects behind (INSERT appends rows
// before erroring on a later one), and replaying the same source against
// the same state reproduces those effects and the failure
// deterministically. A follower whose replay outcome disagrees with
// Failed has diverged and must re-bootstrap.
type LogStmt struct {
	Src    string
	Failed bool
}

// stmtLog is the bounded per-generation statement log behind
// GET /v1/snapshot/delta. Entry i records the mutation that advanced the
// engine from generation base+i to base+i+1; once len(entries) reaches cap,
// the oldest entry is dropped and base advances. Every mutation has an
// entry that replays it: a statement's source, or, for the rows a COPY or an
// ingestion stored and the marginal AddMarginal stored, the script that
// stores them again, rendered only when a delta is served.
//
// The log is guarded by the engine's mu: appends happen under the write lock
// (in the same critical section as the generation bump), reads under the
// read lock — so base+len(entries) always equals the generation counter.
type stmtLog struct {
	cap     int
	base    uint64
	entries []logEntry
}

// logEntry is one mutation: its source src, or, when render is set, the
// script render writes, which then stands for it and replays without error.
type logEntry struct {
	src    string
	render func() string
	failed bool
}

func (l *stmtLog) push(ent logEntry) {
	if l.cap <= 0 {
		// Retention disabled: keep base == generation so every delta request
		// answers ErrLogTruncated (full-snapshot-only replication).
		l.base++
		return
	}
	if len(l.entries) >= l.cap {
		drop := len(l.entries) - l.cap + 1
		n := copy(l.entries, l.entries[drop:])
		l.entries = l.entries[:n]
		l.base += uint64(drop)
	}
	l.entries = append(l.entries, ent)
}

// delta returns the statements advancing generation from → cur, or
// ErrLogTruncated when that range is unserviceable.
func (l *stmtLog) delta(from, cur uint64) ([]LogStmt, error) {
	if from == cur {
		return nil, nil
	}
	if from > cur || from < l.base {
		return nil, ErrLogTruncated
	}
	start := int(from - l.base)
	out := make([]LogStmt, 0, len(l.entries)-start)
	for _, ent := range l.entries[start:] {
		src := ent.src
		if ent.render != nil {
			src = ent.render()
		}
		out = append(out, LogStmt{Src: src, Failed: ent.failed})
	}
	return out, nil
}
