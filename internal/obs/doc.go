// Package obs is the deterministic time-series telemetry layer: it turns
// the per-world metrics registries (internal/metrics) from end-of-run
// snapshots into timelines sampled on the simulation clock.
//
// A Timeline attaches one WorldSampler per simulation world (a plain
// Network, or every shard of a Sharded world). Each sampler arms a
// scheduler timer on its own world's scheduler whose callback schedules
// the next tick with AfterCall (into the arena slot the scheduler freed
// before firing, so the loop allocates nothing) and, at
// every interval tick of simulated time, reads the registry's current
// counters, gauges and histogram bucket distributions into per-series
// ring buffers. Because the tick is an ordinary deterministic event in
// the shard's own event sequence, sampling inherits the engine's
// worker-lane-invariance contract: a timeline recorded at any -shards
// lane count is byte-identical to the serial run's, and two same-seed
// runs produce byte-identical exports. The steady-state sampling path
// performs no allocation (pinned by TestTimelineSampleZeroAlloc).
//
// On top of the sampled series sit:
//
//   - the SLO engine (slo.go): declarative rules — windowed latency
//     quantile thresholds, error-budget burn rates over short+long
//     windows, and value bounds — evaluated over simulated time into
//     firing/resolved intervals with exact sim timestamps;
//   - the annotation stream: structured fault-injector events
//     (faults.Events) ingested onto the same timeline so reports can
//     correlate telemetry inflections with their causes;
//   - exporters: a deterministic JSON timeline (series + annotations +
//     SLO intervals; export.go) and OpenMetrics/Prometheus text
//     exposition of a final snapshot with a format self-check
//     (openmetrics.go).
//
// Samplers auto-quiesce on single-scheduler worlds: when a tick finds
// nothing else pending, the workload is over and the sampler stops
// re-arming instead of ticking through an empty horizon. On multi-shard
// worlds a momentarily empty shard may still receive cross-shard
// traffic, so samplers there run to the horizon.
package obs
