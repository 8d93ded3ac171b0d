package measure

// Fleet observability types. The remote measurement backend (package
// measure/remote) fans sequence measurements out to a pool of uopsd workers;
// the counters it keeps are reported through these types so the engine — and
// through it /v1/stats and /metrics — can expose them without importing the
// backend package.

// FleetWorkerStats are the per-worker counters of a measurement fleet.
type FleetWorkerStats struct {
	// URL is the worker's base URL, the worker label of its series.
	URL string `json:"url" label:"worker"`
	// Healthy reports whether the worker is currently in rotation (false:
	// it crossed the consecutive-failure threshold and is being probed).
	Healthy bool `json:"healthy" metric:"uopsd_fleet_worker_healthy" help:"Whether the fleet worker is in rotation (1) or being probed after failures (0)."`
	// Batches and Sequences count the /v1/measure requests sent to this
	// worker and the sequences they carried, retries included.
	Batches   int64 `json:"batches" metric:"uopsd_fleet_worker_batches_total" help:"Measurement requests sent to the fleet worker."`
	Sequences int64 `json:"sequences" metric:"uopsd_fleet_worker_sequences_total" help:"Sequences sent to the fleet worker."`
	// Errors counts the failed requests against this worker.
	Errors int64 `json:"errors" metric:"uopsd_fleet_worker_errors_total" help:"Failed measurement requests against the fleet worker."`
	// AvgBatchMicros is the mean wall-clock latency of this worker's
	// requests in microseconds (0 when no request completed yet).
	AvgBatchMicros int64 `json:"avgBatchMicros" metric:"uopsd_fleet_worker_batch_latency_micros" help:"Mean measurement request latency against the fleet worker, microseconds."`
}

// FleetStats are the cumulative counters of a measurement fleet client.
type FleetStats struct {
	// Fingerprint is the handshake-derived serving fingerprint of the fleet
	// (the workers' backend identity plus measurement-config digest; the
	// remote backend's Version wraps it as "fleet(...)").
	Fingerprint string `json:"fingerprint"`
	// Batches counts /v1/measure requests sent (across workers, retries
	// included): one per runner call and attempt, since calls never share a
	// request. Sequences counts sequences submitted to the fleet by runners
	// (each at most once, however often it is retried).
	Batches   int64 `json:"batches" metric:"uopsd_fleet_batches_total" help:"Measurement requests this process sent to its fleet (including retries)."`
	Sequences int64 `json:"sequences" metric:"uopsd_fleet_sequences_total" help:"Sequences this process submitted to its fleet."`
	// Deduped is always 0. It counted Run calls answered from a runner's
	// last-result cache, which went away when the harness stopped repeating
	// readings; the field stays because cmd/uopsbench reads it.
	Deduped int64 `json:"deduped"`
	// Retries counts sequences sent again after a transient request
	// failure; Errors counts the failed requests themselves.
	Retries int64 `json:"retries" metric:"uopsd_fleet_retries_total" help:"Sequences sent again after a transient fleet request failure."`
	Errors  int64 `json:"errors" metric:"uopsd_fleet_errors_total" help:"Fleet measurement requests that failed (transport error, non-200, drifted worker)."`
	// Hedges is always 0: the fleet sends each request once and again only
	// when it fails, never duplicating a slow one. The field stays
	// because cmd/uopsbench reads it.
	Hedges int64 `json:"hedges"`
	// Workers are the per-worker counters, in configuration order.
	Workers []FleetWorkerStats `json:"workers"`
}

// FleetReporter is implemented by backends that drive a measurement fleet;
// the engine folds their counters into Stats. ok is false when the backend
// has no fleet configured.
type FleetReporter interface {
	FleetStats() (stats FleetStats, ok bool)
}

// ReadyChecker is implemented by backends that need runtime configuration
// before use (e.g. the remote backend's fleet URLs). The engine refuses to
// build on a backend whose Ready returns an error, so a misconfigured
// substrate fails at construction time instead of polluting cache keys with
// a placeholder fingerprint.
type ReadyChecker interface {
	Ready() error
}
