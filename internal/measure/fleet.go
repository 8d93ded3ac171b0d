package measure

// Fleet observability types. The remote measurement backend (package
// measure/remote) fans sequence measurements out to a pool of uopsd workers;
// the counters it keeps are reported through these types so the engine — and
// through it /v1/stats and /metrics — can expose them without importing the
// backend package.

// FleetWorkerStats are the per-worker counters of a measurement fleet.
type FleetWorkerStats struct {
	// URL is the worker's base URL.
	URL string `json:"url"`
	// Healthy reports whether the worker is currently in rotation (false:
	// it crossed the consecutive-failure threshold and is being probed).
	Healthy bool `json:"healthy"`
	// Batches and Sequences count the measurement batches (HTTP requests)
	// and the sequences inside them sent to this worker, including retried
	// work.
	Batches   int64 `json:"batches"`
	Sequences int64 `json:"sequences"`
	// Errors counts transport-level batch failures against this worker.
	Errors int64 `json:"errors"`
	// AvgBatchMicros is the mean wall-clock latency of this worker's
	// batches in microseconds (0 when no batch completed yet).
	AvgBatchMicros int64 `json:"avgBatchMicros"`
}

// FleetStats are the cumulative counters of a measurement fleet client.
type FleetStats struct {
	// Fingerprint is the handshake-derived serving fingerprint of the fleet
	// (the workers' backend identity plus measurement-config digest; the
	// remote backend's Version wraps it as "fleet(...)").
	Fingerprint string `json:"fingerprint"`
	// Batches counts measurement batches sent (across workers, including
	// retries); Sequences counts sequences submitted to the fleet by
	// runners (each at most once, however often it is retried).
	Batches   int64 `json:"batches"`
	Sequences int64 `json:"sequences"`
	// Deduped is always 0. It counted Run calls answered from a runner's
	// last-result cache, which went away when the harness stopped repeating
	// readings; the field stays because cmd/uopsbench reads it.
	Deduped int64 `json:"deduped"`
	// Retries counts sequences re-enqueued after a transient batch failure;
	// Errors counts the failed batches themselves.
	Retries int64 `json:"retries"`
	Errors  int64 `json:"errors"`
	// Hedges is always 0: the fleet sends each batch once and retries it
	// only when it fails, never duplicating a slow one. The field stays
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
