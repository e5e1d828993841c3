// Wire types for the replication protocol: GET /v1/snapshot hands a
// bootstrapping follower the full dump script plus the generation it
// captures; GET /v1/snapshot/delta?from=G hands a caught-up-to-G follower
// the exact statement suffix that advances it to the primary's current
// generation (410 Gone when G has fallen out of the primary's bounded
// statement log, telling the follower to re-bootstrap).
package wire

// SnapshotResponse is a GET /v1/snapshot answer as the client decodes it
// (the wire body is the bare script, see GenerationHeader): the primary's
// full dump script and the DDL/DML generation it captures, read under one
// lock acquisition — replaying Script yields the primary's state at exactly
// Generation.
type SnapshotResponse struct {
	Script     string
	Generation uint64
}

// DeltaStmt is one replicated statement: the exact SQL source the primary
// executed and whether that execution failed. Followers replay failed
// statements too (a failed mutation can leave deterministic partial effects
// behind) and verify that their own outcome matches Failed — a mismatch
// means divergence and forces a full re-bootstrap.
type DeltaStmt struct {
	Src    string `json:"src"`
	Failed bool   `json:"failed,omitempty"`
}

// DeltaResponse is the body of GET /v1/snapshot/delta?from=G: the statements
// advancing the primary from generation From (= the requested G) to
// Generation, in execution order. Empty Stmts with From == Generation means
// the follower is already caught up.
type DeltaResponse struct {
	From       uint64      `json:"from"`
	Generation uint64      `json:"generation"`
	Stmts      []DeltaStmt `json:"stmts,omitempty"`
}

// FollowerStats reports a follower's replication state in /statsz and
// /healthz: which primary it tails, the primary generation it has
// replicated, and how its sync loop has fared.
type FollowerStats struct {
	Primary string `json:"primary"`
	// Generation is the primary generation this follower has fully applied
	// — the value its generation-checked reads are gated on.
	Generation uint64 `json:"generation"`
	// LastSyncUnixMs is when the follower last confirmed it was caught up
	// (a successful sync, including an empty delta). 0 before the first.
	LastSyncUnixMs int64 `json:"last_sync_unix_ms,omitempty"`
	// Stale is set when the follower has not confirmed catch-up within its
	// configured staleness bound. Staleness degrades health reporting only;
	// read correctness is generation-gated, not time-gated.
	Stale        bool  `json:"stale,omitempty"`
	FullSyncs    int64 `json:"full_syncs"`
	DeltaSyncs   int64 `json:"delta_syncs"`
	AppliedStmts int64 `json:"applied_stmts"`
	// Truncations counts deltas refused with 410 Gone: the requested
	// generation fell out of the primary's bounded statement log, or lies
	// ahead of it (a primary that restarted). Each forces a full
	// re-bootstrap; no write, Go-API writes included, forces one by itself.
	Truncations int64 `json:"truncations"`
	SyncErrors  int64 `json:"sync_errors"`
	// FormatRefusals counts snapshot and delta answers refused, unreplayed,
	// for a missing or different SnapshotFormatHeader: a primary of
	// another version. Each is a sync error too.
	FormatRefusals int64 `json:"format_refusals"`
}

// HealthResponse is the typed body of GET /healthz on mosaic-serve. Status
// is "ok" or "degraded" (a follower that has lost its primary or exceeded
// its staleness bound reports degraded while still serving generation-gated
// reads).
type HealthResponse struct {
	Status     string         `json:"status"`
	UptimeSecs float64        `json:"uptime_secs"`
	Follower   *FollowerStats `json:"follower,omitempty"`
}

// BackendStats is one read backend's routing accounting in the
// coordinator's /statsz. Primaries and replicas both appear, so the
// primary/replica routing split and each replica's lag are observable.
type BackendStats struct {
	Shard int    `json:"shard"`
	URL   string `json:"url"`
	Role  string `json:"role"` // "primary" | "replica"
	// Reads counts read requests (pass-through queries and scatter
	// partials) this backend answered successfully.
	Reads int64 `json:"reads"`
	// Failovers counts reads that failed on this backend and were rerouted
	// to another backend of the same shard.
	Failovers int64 `json:"failovers"`
	// Generation is the backend's last observed (replicated) generation;
	// Lag is how many generations it trails the fleet. Primaries are
	// authoritative (lag 0 by construction outside divergence).
	Generation uint64 `json:"generation"`
	Lag        uint64 `json:"lag"`
	// CaughtUp reports whether the backend is currently eligible for
	// generation-gated reads.
	CaughtUp bool    `json:"caught_up"`
	EWMAMs   float64 `json:"ewma_ms"` // observed read latency estimate
}
