// Package repl implements Mosaic's follower replication: a read replica
// that bootstraps from a primary's full snapshot script and then tails its
// per-generation statement log (GET /v1/snapshot, GET /v1/snapshot/delta).
//
// The replication unit is the Mosaic SQL statement, not a byte page: the
// engine is deterministic for a fixed Options and statement stream, so a
// follower that replays the primary's exact statement suffix — failed
// statements included, in order — lands on a bit-identical state at the
// same generation. Four invariants keep that sound:
//
//   - Every delta statement carries the primary's Failed flag, and the
//     follower verifies its own replay agrees ((err != nil) == Failed). A
//     disagreement means the states diverged (impossible for same-Options
//     processes, by the determinism contract); the follower discards its
//     state and re-bootstraps from a full snapshot rather than serve wrong
//     answers.
//   - Every mutation is a statement in the delta, including those that
//     entered the primary through the Go API: Ingest and IngestTable arrive
//     as the COPY blocks of the rows they stored, SetMechanism as the ALTER
//     SAMPLE it executed, AddMarginal as the staging script a dump writes.
//     A follower falls back to a full snapshot only when the primary's
//     bounded log no longer covers its generation — never skipping or
//     guessing a statement.
//   - A follower replays only answers in its snapshot format
//     (wire.SnapshotFormat, named by every snapshot and delta answer). A
//     primary of another version is refused with a *client.FormatError and
//     counted, and nothing it sent is replayed.
//   - While a delta is mid-apply (or a bootstrap mid-swap), the follower's
//     state is between generations: ReplicatedGeneration reports not-ok and
//     the serving layer refuses generation-checked reads with 409, so the
//     coordinator can never gather an answer from a half-applied state.
//
// Staleness (no successful sync within StalenessMax) degrades health only;
// it never affects correctness — the coordinator routes by generation, and
// a lagging follower simply stops being a read candidate.
package repl

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/wire"
)

// Config configures a Follower.
type Config struct {
	// Primary is the primary mosaic-serve base URL, e.g. "http://h1:7171".
	Primary string
	// DB is the local database the follower replicates into. It must be
	// opened with the SAME mosaic.Options as the primary (Seed, Shards,
	// SWG, ...): statement replay is only deterministic across identical
	// engines.
	DB *mosaic.DB
	// PollInterval is the delta poll period. Default 500ms.
	PollInterval time.Duration
	// StalenessMax marks the follower degraded (health only, never
	// correctness) when no sync has succeeded for this long. Default 10s.
	StalenessMax time.Duration
	// Retry configures retries of the idempotent snapshot fetches.
	// Zero-valued fields take client defaults.
	Retry client.RetryPolicy
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	if c.Primary == "" {
		return c, errors.New("repl: Primary is required")
	}
	if c.DB == nil {
		return c, errors.New("repl: DB is required")
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.StalenessMax <= 0 {
		c.StalenessMax = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// Follower tails one primary. It implements server.FollowerState, so a
// serving layer wrapped around the same DB gates generation-checked reads
// on the replicated generation below.
type Follower struct {
	cfg Config
	cli *client.Client

	// gen is the primary generation the local state corresponds to. It is a
	// consistent claim only while applying and dirty are both false: the
	// apply path raises applying before the first statement touches the
	// engine and lowers it after the new generation is stored, and a sync
	// that aborts mid-suffix (deadline, divergence) raises dirty until a
	// full bootstrap lands a known-good state again.
	gen      atomic.Uint64
	applying atomic.Bool
	dirty    atomic.Bool

	lastSyncMs   atomic.Int64 // wall-clock ms of the last successful sync
	fullSyncs    atomic.Int64
	deltaSyncs   atomic.Int64
	appliedStmts atomic.Int64
	truncations  atomic.Int64
	syncErrors   atomic.Int64
	refusals     atomic.Int64

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewFollower creates a Follower over cfg. Call Bootstrap (or Start, which
// bootstraps first) before serving reads.
func NewFollower(cfg Config) (*Follower, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Follower{
		cfg:  cfg,
		cli:  client.New(cfg.Primary, client.WithRetry(cfg.Retry)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// ReplicatedGeneration implements server.FollowerState: the primary
// generation the local state corresponds to, and false while a delta or
// bootstrap is mid-apply (or an aborted apply awaits its re-bootstrap).
// The flags are re-checked after the generation load so the returned pair
// was consistent at some instant during the call.
func (f *Follower) ReplicatedGeneration() (uint64, bool) {
	if f.applying.Load() || f.dirty.Load() {
		return 0, false
	}
	g := f.gen.Load()
	if f.applying.Load() || f.dirty.Load() {
		return 0, false
	}
	return g, true
}

// Generation returns the replicated primary generation (0 before the first
// bootstrap).
func (f *Follower) Generation() uint64 { return f.gen.Load() }

// Stats implements server.FollowerState.
func (f *Follower) Stats() wire.FollowerStats {
	last := f.lastSyncMs.Load()
	stale := last == 0 || time.Since(time.UnixMilli(last)) > f.cfg.StalenessMax
	return wire.FollowerStats{
		Primary:        f.cfg.Primary,
		Generation:     f.gen.Load(),
		LastSyncUnixMs: last,
		Stale:          stale,
		FullSyncs:      f.fullSyncs.Load(),
		DeltaSyncs:     f.deltaSyncs.Load(),
		AppliedStmts:   f.appliedStmts.Load(),
		Truncations:    f.truncations.Load(),
		SyncErrors:     f.syncErrors.Load(),
		FormatRefusals: f.refusals.Load(),
	}
}

// Bootstrap discards the local state and rebuilds it from the primary's
// full snapshot script, then adopts the snapshot's generation. Restore
// replays into a fresh engine and swaps it in atomically, so reads racing
// the bootstrap finish against whichever engine they started on — and the
// serving layer's generation bracket discards any read that straddles the
// swap. On failure the previous state is untouched (dirty stays raised if
// it was: an aborted apply is only cleared by a bootstrap that lands).
func (f *Follower) Bootstrap(ctx context.Context) error {
	snap, err := f.cli.SnapshotContext(ctx)
	if err != nil {
		f.syncError(err)
		return fmt.Errorf("repl: snapshot from %s: %w", f.cfg.Primary, err)
	}
	f.applying.Store(true)
	defer f.applying.Store(false)
	if err := f.cfg.DB.Restore(snap.Script); err != nil {
		f.syncErrors.Add(1)
		return fmt.Errorf("repl: bootstrap replay: %w", err)
	}
	f.gen.Store(snap.Generation)
	f.dirty.Store(false)
	f.fullSyncs.Add(1)
	f.lastSyncMs.Store(time.Now().UnixMilli())
	f.cfg.Logf("repl: bootstrapped from %s at generation %d (%d bytes)", f.cfg.Primary, snap.Generation, len(snap.Script))
	return nil
}

// SyncOnce advances the follower by one round: fetch the statement suffix
// since the replicated generation and replay it, falling back to a full
// Bootstrap when the primary's log no longer covers the range (410 Gone:
// truncated, or a primary that restarted to an older counter).
func (f *Follower) SyncOnce(ctx context.Context) error {
	if f.dirty.Load() {
		// A previous apply aborted mid-suffix; the state between generations
		// cannot take a delta. Only a full bootstrap recovers.
		return f.Bootstrap(ctx)
	}
	from := f.gen.Load()
	delta, err := f.cli.SnapshotDeltaContext(ctx, from)
	if err != nil {
		var re *client.RemoteError
		if errors.As(err, &re) && re.StatusCode == http.StatusGone {
			f.truncations.Add(1)
			f.cfg.Logf("repl: delta from generation %d gone (%s); re-bootstrapping", from, re.Message)
			return f.Bootstrap(ctx)
		}
		f.syncError(err)
		return fmt.Errorf("repl: delta from %s: %w", f.cfg.Primary, err)
	}
	if delta.Generation == from {
		// Caught up; a successful no-op round still refreshes staleness.
		f.lastSyncMs.Store(time.Now().UnixMilli())
		return nil
	}
	f.applying.Store(true)
	defer f.applying.Store(false)
	for i, st := range delta.Stmts {
		err := f.cfg.DB.ExecContext(ctx, st.Src)
		if ctx.Err() != nil {
			// The round's deadline hit mid-suffix: the local state sits
			// between generations, and re-fetching from `from` would
			// double-apply the prefix. Mark dirty and re-bootstrap on a
			// fresh (but still bounded) context.
			f.dirty.Store(true)
			f.syncErrors.Add(1)
			f.cfg.Logf("repl: delta apply interrupted at statement %d/%d; re-bootstrapping", i+1, len(delta.Stmts))
			bctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), f.syncTimeout())
			defer cancel()
			return f.Bootstrap(bctx)
		}
		if (err != nil) != st.Failed {
			// Deterministic replay disagreed with the primary's outcome: the
			// states diverged. Never keep serving from a diverged copy.
			f.dirty.Store(true)
			f.syncErrors.Add(1)
			f.cfg.Logf("repl: divergence at generation %d statement %q: primary failed=%v, local err=%v; re-bootstrapping", from+uint64(i)+1, st.Src, st.Failed, err)
			return f.Bootstrap(ctx)
		}
		f.appliedStmts.Add(1)
	}
	f.gen.Store(delta.Generation)
	f.deltaSyncs.Add(1)
	f.lastSyncMs.Store(time.Now().UnixMilli())
	return nil
}

// syncError counts a failed fetch: a sync error, and a format refusal when
// the primary answered in a snapshot format this follower does not read.
func (f *Follower) syncError(err error) {
	f.syncErrors.Add(1)
	if fe := (*client.FormatError)(nil); errors.As(err, &fe) {
		f.refusals.Add(1)
	}
}

// Start bootstraps and then polls the primary every PollInterval until
// Close. A failed initial bootstrap fails Start — a follower must never
// serve before holding a real state.
func (f *Follower) Start(ctx context.Context) error {
	if err := f.Bootstrap(ctx); err != nil {
		return err
	}
	f.started.Store(true)
	go f.loop()
	return nil
}

func (f *Follower) loop() {
	defer close(f.done)
	t := time.NewTicker(f.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), f.syncTimeout())
			if err := f.SyncOnce(ctx); err != nil {
				f.cfg.Logf("repl: sync: %v", err)
			}
			cancel()
		}
	}
}

// syncTimeout bounds one sync round: generous relative to the poll cadence
// (a full bootstrap replays the whole snapshot) but never unbounded.
func (f *Follower) syncTimeout() time.Duration {
	t := 20 * f.cfg.PollInterval
	if t < 30*time.Second {
		t = 30 * time.Second
	}
	return t
}

// Close stops the poll loop and waits for the in-flight round, if any. It
// is idempotent and safe to call even if Start was never called or failed.
func (f *Follower) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	if f.started.Load() {
		<-f.done
	}
}
