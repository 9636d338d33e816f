// NDJSON wire protocol for the long-lived DSE service.
//
// Requests: one JSON object per line. Every line is answered by a stream
// of events for that request id, ending in exactly one terminal `done`
// event, so a client can multiplex any number of in-flight requests over
// one connection and knows when each is finished.
//
//   {"id": "r1", "type": "sweep", "spec": {"widths": [8]},
//    "objectives": ["error", "area", "power", "delay"], "export": true}
//   {"id": "s1", "type": "stats"}
//   {"id": "c1", "type": "cancel", "target": "r1"}
//   {"id": "q1", "type": "shutdown"}
//
// Events (one per line, in deterministic per-request order for sweeps:
// accepted, point 0..n-1, summary, [result], done):
//
//   {"id": "r1", "event": "accepted", "type": "sweep", "points": 60, ...}
//   {"id": "r1", "event": "point", "index": 0, "point": {...}}
//   {"id": "r1", "event": "summary", "points": 60, "frontier": 15, ...}
//   {"id": "r1", "event": "result", "format": "dse_json", "data": "..."}
//   {"id": "r1", "event": "error", "code": "parse_error", "message": "..."}
//   {"id": "r1", "event": "done", "ok": true}
//
// Sweep events carry no wall-clock fields and no cache counters: for a
// fixed request they are byte-identical at any thread count, any request
// concurrency and any cache warmth. Timing, cache hits and other
// inherently non-reproducible observability live in the `stats` event
// only.
//
// Parsing is strict — unknown fields, wrong types, duplicate keys and
// oversized lines are all rejected with a machine-readable error code —
// so a typo'd request fails loudly instead of silently sweeping the wrong
// space.
#ifndef SDLC_SERVE_PROTOCOL_H
#define SDLC_SERVE_PROTOCOL_H

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dse/evaluator.h"
#include "dse/pareto.h"
#include "dse/sweep.h"
#include "obs/trace.h"
#include "serve/sink.h"

namespace sdlc::serve {

/// What a request line asks the service to do.
enum class RequestType {
    kSweep,     ///< evaluate a SweepSpec, stream the results
    kStats,     ///< report service counters (cache, queue, timings)
    kMetrics,   ///< dump Prometheus text-format metrics
    kTrace,     ///< return the last-N completed request trace trees
    kCancel,    ///< cancel a queued or running sweep by id
    kShutdown,  ///< stop intake, drain the queue, then exit
};

/// Short lowercase name ("sweep", "stats", "metrics", "trace", "cancel",
/// "shutdown").
[[nodiscard]] const char* request_type_name(RequestType t) noexcept;

/// One parsed request line.
struct SweepRequest {
    std::string id;
    RequestType type = RequestType::kSweep;
    // Sweep payload (defaults mirror dse_tool's: the default width-8 sweep
    // with the paper's objective set).
    SweepSpec spec;
    EvalOptions eval;  ///< serializable knobs only; the service owns pool/cache
    ObjectiveSet objectives = default_objectives();
    bool stream_points = true;  ///< emit a `point` event per design point
    bool export_json = false;   ///< attach the canonical JSON export as a `result` event
    /// Wall-clock budget in milliseconds, measured from arrival (queue wait
    /// counts). 0 = none. An exceeded budget aborts the sweep with a
    /// `deadline_exceeded` error event; the points already streamed are a
    /// strict prefix of the full enumeration-order stream.
    uint64_t deadline_ms = 0;
    /// When > 0 and export is requested, the export payload is streamed as
    /// `result_chunk` events of at most this many payload bytes instead of
    /// one `result` event, keeping peak buffering O(chunk_bytes).
    size_t chunk_bytes = 0;
    /// Enumeration-index restriction ({"shard": {"lo": N, "hi": M}}): run
    /// only points [lo, hi) of the spec's enumeration — how a cluster
    /// coordinator hands one worker its slice of a sweep. Both zero = the
    /// whole space. A contradictory range (lo >= hi, hi > the spec's point
    /// count) is rejected at parse time with the structured code
    /// "invalid_shard". Point events keep their global enumeration
    /// indices, so shard streams merge back by index alone.
    size_t shard_lo = 0;
    size_t shard_hi = 0;
    /// When true, every point event additionally carries a "bits" field —
    /// the point's exact IEEE-754 payload (dse/point_wire.h) — so a
    /// coordinator can reconstruct points bit-exactly instead of re-parsing
    /// the lossy "%.12g" rendering.
    bool point_bits = false;
    /// Optional distributed-tracing identity ({"trace": {"id": "<32 hex>",
    /// "span": "<16 hex>"}}). Absent means "not traced" (trace.valid ==
    /// false): the request is handled on the exact pre-tracing byte path,
    /// so tracing can never perturb sweep exports. When present, the
    /// service records per-stage spans under this context and returns them
    /// on the request's `done` event (`spans` field) — an observability
    /// channel, like the stats event.
    obs::TraceContext trace;
    // Cancel payload.
    std::string target;
};

/// Why a request line was rejected.
struct RequestError {
    std::string id;       ///< request id when one could be extracted, else ""
    std::string code;     ///< "too_large", "parse_error", "invalid_request"
                          ///< or "invalid_shard"
    std::string message;  ///< human-readable detail
};

/// Default cap on one request line; a line longer than this is rejected
/// before the JSON parser ever sees it.
inline constexpr size_t kDefaultMaxRequestBytes = size_t{1} << 20;

/// Parses one NDJSON request line (strict; see file comment). Returns
/// false and fills `err` on rejection.
[[nodiscard]] bool parse_request(const std::string& line, size_t max_bytes, SweepRequest& out,
                                 RequestError& err);

/// Fixed-boundary histogram of per-request wall latency (arrival to
/// terminal event), in seconds. Buckets follow the Prometheus histogram
/// convention when rendered (cumulative `le` counts plus sum and count);
/// storage here is one count per bucket, the last bucket being +Inf.
struct LatencyHistogram {
    /// Upper bounds (seconds) of the finite buckets.
    static constexpr std::array<double, 13> kBounds = {
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0};
    std::array<uint64_t, kBounds.size() + 1> counts{};  ///< last = beyond kBounds
    uint64_t count = 0;   ///< total observations
    double sum = 0.0;     ///< summed observed seconds

    void observe(double seconds) noexcept {
        size_t bucket = 0;
        while (bucket < kBounds.size() && seconds > kBounds[bucket]) ++bucket;
        ++counts[bucket];
        ++count;
        sum += seconds;
    }
};

/// Per-worker shard-dispatch counters of a cluster coordinator (see
/// src/cluster/coordinator.h). Observability only — like every other
/// counter here, never part of a sweep's deterministic event stream.
struct ClusterWorkerCounters {
    std::string spec;           ///< worker endpoint as configured
    uint64_t dispatched = 0;    ///< shard requests sent to this worker
    uint64_t completed = 0;     ///< shards fully streamed back
    uint64_t retried = 0;       ///< shard attempts that failed here and were re-dispatched
    uint64_t bytes = 0;         ///< event bytes received from this worker
    double busy_seconds = 0.0;  ///< summed shard round-trip wall time
};

/// Cluster coordination counters (disabled/empty without --workers).
struct ClusterCounters {
    bool enabled = false;
    size_t shards = 0;          ///< configured shard count per sweep
    uint64_t sweeps = 0;        ///< distributed sweeps coordinated
    uint64_t local_shards = 0;  ///< shards executed locally as last resort
    std::vector<ClusterWorkerCounters> workers;

    /// Accumulates a per-sweep delta (workers matched by position; `other`
    /// must come from the same worker list).
    void add(const ClusterCounters& other);
};

/// Aggregate service counters for the `stats` event. Unlike sweep events
/// these are observability, not reproducible output: timings and the raw
/// cache counters depend on scheduling.
struct ServiceStats {
    uint64_t accepted = 0;          ///< requests queued since start
    uint64_t completed = 0;         ///< requests finished successfully
    uint64_t failed = 0;            ///< requests that errored
    uint64_t cancelled = 0;         ///< sweeps cancelled before completion
    uint64_t deadline_exceeded = 0; ///< sweeps aborted by their deadline_ms budget
    uint64_t overloaded = 0;        ///< requests rejected because the queue was full
    uint64_t points_evaluated = 0;  ///< design points across all sweeps
    uint64_t cache_hits = 0;        ///< CostCache raw hit counter
    uint64_t cache_misses = 0;      ///< CostCache raw miss counter
    size_t cache_entries = 0;       ///< distinct memoized designs
    /// Per-stage latency histograms: where sweep requests spend their wall
    /// time. queue_wait is arrival -> worker pickup; evaluate covers the
    /// sweep evaluation (including cache/synthesis); serialize covers
    /// Pareto ranking + export emission.
    LatencyHistogram queue_wait;
    LatencyHistogram stage_evaluate;
    LatencyHistogram stage_serialize;
    size_t queue_depth = 0;         ///< requests waiting in the queue
    size_t in_flight = 0;           ///< requests being processed right now
    double busy_seconds = 0.0;      ///< summed sweep wall time
    double uptime_seconds = 0.0;    ///< seconds since the service started
    LatencyHistogram latency;       ///< per-request wall latency (sweep requests)
    /// Cluster coordination counters (disabled without --workers).
    ClusterCounters cluster;
};

// ---- event emission (single-line strings, no trailing newline) ----

[[nodiscard]] std::string accepted_event(const std::string& id, RequestType type,
                                         size_t points, const std::string& spec_summary);
/// `with_bits` appends the exact-payload "bits" field (requests with
/// "point_bits": true); the rest of the line is unchanged either way.
[[nodiscard]] std::string point_event(const std::string& id, size_t index,
                                      const DesignPoint& point, bool with_bits = false);
[[nodiscard]] std::string summary_event(const std::string& id, const SweepStats& stats,
                                        size_t frontier_size, const ObjectiveSet& objectives);
[[nodiscard]] std::string result_event(const std::string& id, const std::string& dse_json);
[[nodiscard]] std::string result_chunk_event(const std::string& id, size_t seq, bool last,
                                             std::string_view data);
[[nodiscard]] std::string metrics_event(const std::string& id, const std::string& prometheus);
[[nodiscard]] std::string stats_event(const std::string& id, const ServiceStats& stats);
[[nodiscard]] std::string error_event(const std::string& id, const std::string& code,
                                      const std::string& message);
/// With a non-empty `spans` list, the done event additionally carries a
/// `spans` field (obs::spans_wire_json) — only traced requests ever pass
/// one, so untraced done events keep their exact historical bytes.
[[nodiscard]] std::string done_event(const std::string& id, bool ok,
                                     const std::vector<obs::Span>& spans = {});
/// `trace` verb response: the last-N completed request trees, one object
/// per tree with its request id, 32-hex trace id and span list.
[[nodiscard]] std::string trace_event(const std::string& id,
                                      const std::vector<obs::TraceTree>& trees);

/// Serializes a sweep request back into one parseable NDJSON line —
/// parse_request(sweep_request_json(r)) reproduces `r` exactly for any
/// valid sweep request. A cluster coordinator builds its shard
/// sub-requests with this, so dispatch can never drift from the parser.
/// Only meaningful for RequestType::kSweep.
[[nodiscard]] std::string sweep_request_json(const SweepRequest& request);

/// Emits the deterministic post-evaluation tail of a sweep's event stream
/// — summary, then (when requested) the result event or result_chunk
/// stream — exactly as SweepService does. Shared with the cluster
/// coordinator so a coordinated sweep's bytes cannot drift from a
/// single-node one's. A non-null `recorder` (traced requests only) records
/// `pareto_rank` and `serialize` spans under the request's trace context;
/// the emitted bytes are identical either way.
void emit_sweep_results(ResponseSink& sink, const SweepRequest& request,
                        const std::vector<DesignPoint>& points, const SweepStats& stats,
                        obs::SpanRecorder* recorder = nullptr);

/// Splits a streamed export payload into bounded `result_chunk` events:
/// feed() pieces in order, then finish() exactly once. Every chunk except
/// the last carries exactly `chunk_bytes` payload bytes; the last carries
/// 1..chunk_bytes and `"last": true`. Byte-concatenating the chunks'
/// `data` fields reconstructs the payload exactly, and sequence numbers
/// run 0..n-1 so a client can detect a gap. Peak buffering is
/// O(chunk_bytes + largest piece), never the whole payload.
class ResultChunker {
public:
    ResultChunker(ResponseSink& sink, std::string id, size_t chunk_bytes)
        : sink_(sink), id_(std::move(id)), chunk_bytes_(chunk_bytes == 0 ? 1 : chunk_bytes) {}

    void feed(std::string_view piece);
    /// Flushes whatever remains as the final chunk (last=true).
    void finish();

    /// Chunks emitted so far.
    [[nodiscard]] size_t chunks() const noexcept { return seq_; }

private:
    ResponseSink& sink_;
    std::string id_;
    size_t chunk_bytes_;
    size_t seq_ = 0;
    std::string buffer_;
};

}  // namespace sdlc::serve

#endif  // SDLC_SERVE_PROTOCOL_H
