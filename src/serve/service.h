// Long-lived DSE service: one ThreadPool and one CostCache shared across
// every request.
//
// SweepService consumes parsed request lines from a bounded MPMC queue and
// streams NDJSON events to each request's ResponseSink. A fixed set of
// request workers gives the service bounded request concurrency; each
// sweep then fans its design points out over the single shared ThreadPool,
// so total evaluation parallelism stays at the pool size no matter how
// many requests are in flight. The shared CostCache is what makes the
// service worth keeping resident: the second identical request skips
// synthesis entirely (nonzero hit counters, visible via `stats`).
//
// Determinism: a sweep's event stream (accepted, point 0..n-1, summary,
// [result], done) is byte-identical for a fixed request, whatever the
// cache holds, at any pool size and any request concurrency — events
// carry no timestamps or cache counters, and the evaluator streams points
// in enumeration order. Streams of concurrent requests interleave at line
// granularity but each request's own subsequence never changes.
//
// Shutdown is drain-based: a shutdown request (or request_shutdown())
// closes the queue so no new work is accepted, every already-queued
// request still runs to completion, and shutdown() joins the workers once
// the queue is empty.
#ifndef SDLC_SERVE_SERVICE_H
#define SDLC_SERVE_SERVICE_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dse/cost_cache.h"
#include "obs/access_log.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/request_queue.h"
#include "serve/sink.h"
#include "util/thread_pool.h"

namespace sdlc::serve {

/// Service sizing knobs.
struct ServiceOptions {
    unsigned eval_threads = 0;     ///< shared ThreadPool size; 0 = hardware concurrency
    unsigned request_workers = 2;  ///< concurrent in-flight requests
    size_t queue_capacity = 64;    ///< bounded request queue (push blocks when full)
    size_t max_request_bytes = kDefaultMaxRequestBytes;
    /// Overload policy. false (default): submit blocks while the queue is
    /// full — backpressure onto the connection that is flooding. true:
    /// load-shedding — a full queue answers immediately with a structured
    /// `overloaded` error event instead of blocking the reader, so one
    /// flooding client cannot wedge intake for everyone on its connection
    /// and a deadline-carrying client learns of the rejection in time to
    /// retry elsewhere.
    bool reject_when_full = false;
    /// When set, one structured JSON line per request lands here (trace_id,
    /// verb, outcome, queue_wait_s, wall_s, bytes_out, shed/deadline flags).
    std::shared_ptr<obs::AccessLog> access_log;
    /// Completed traced-request trees retained for the `trace` verb and
    /// --trace-out.
    size_t trace_capacity = 64;
};

/// The long-lived sweep service (see file comment). Derivable: a subclass
/// can swap the evaluation engine (see the protected evaluate() hook) while
/// inheriting the queue, cancellation, deadline, stats and event-emission
/// machinery — cluster::CoordinatorService distributes sweeps this way.
class SweepService {
public:
    explicit SweepService(const ServiceOptions& opts = {});

    /// Drains and joins (equivalent to shutdown()).
    virtual ~SweepService();

    SweepService(const SweepService&) = delete;
    SweepService& operator=(const SweepService&) = delete;

    /// Parses and enqueues one NDJSON request line; every response event
    /// for it goes to `sink`. Malformed lines are answered immediately
    /// with error + done events. Returns false once the service is
    /// shutting down and the line was rejected (an error event is still
    /// emitted); blocks while the request queue is full.
    bool submit_line(const std::string& line, std::shared_ptr<ResponseSink> sink);

    /// Answers an over-long unterminated line with too_large + done (the
    /// transport never got a complete line to hand to submit_line, but
    /// the protocol still promises a machine-readable rejection before
    /// the connection drops).
    void reject_oversized_line(ResponseSink& sink);

    /// Stops intake (idempotent); queued requests still complete. Safe to
    /// call from any thread, including request workers.
    void request_shutdown();

    /// request_shutdown() plus draining the queue and joining the request
    /// workers. Idempotent; must not be called from a request worker.
    void shutdown();

    /// True once a shutdown request was processed or request_shutdown()
    /// called.
    [[nodiscard]] bool shutdown_requested() const;

    /// Invoked exactly once when shutdown is first requested — a transport
    /// front-end hooks this to unblock its accept/read loop — or at once
    /// when shutdown was requested before the hook was set. Set before
    /// the first request is submitted.
    void set_on_shutdown(std::function<void()> hook);

    /// Momentary aggregate counters (what the `stats` request reports).
    [[nodiscard]] virtual ServiceStats stats() const;

    /// The last trace_capacity completed traced-request trees (what the
    /// `trace` request verb returns; tools drain this into --trace-out).
    [[nodiscard]] std::vector<obs::TraceTree> trace_trees() const { return traces_.snapshot(); }

protected:
    /// Evaluates one accepted sweep request. `eval` arrives fully wired —
    /// shared pool, resident cache, cancel flag,
    /// deadline, and the ordered on_point stream — so an override only
    /// decides *where* the points are computed. Everything around the call
    /// (accepted/summary/result/error/done emission, counters, latency) is
    /// shared, which is what keeps a derived service's event stream
    /// byte-identical to this one's. Throws like evaluate_sweep
    /// (SweepCancelled, SweepDeadlineExceeded, std::invalid_argument).
    virtual std::vector<DesignPoint> evaluate(const SweepRequest& request, EvalOptions& eval,
                                              SweepStats& stats);

private:
    struct Job {
        SweepRequest request;
        std::shared_ptr<ResponseSink> sink;
        std::shared_ptr<std::atomic<bool>> cancel;  ///< sweep jobs only
        /// Submission time: the origin of the request's deadline_ms budget
        /// (queue wait counts against it) and of the latency histogram.
        std::chrono::steady_clock::time_point arrival;
        /// Seconds parse_request spent on the line (0 for pre-parsed
        /// submits); becomes a `parse` span on traced requests.
        double parse_s = 0.0;
    };

    void worker_loop();
    void process(Job& job);
    void run_sweep(const Job& job, double queue_wait_s);
    void handle_cancel(const SweepRequest& request, ResponseSink& sink);
    bool submit_job(const SweepRequest& request, std::shared_ptr<ResponseSink> sink,
                    double parse_s);
    /// Writes the per-request access-log line (no-op without a log).
    void access_log_line(const std::string& id, const char* verb,
                         const obs::TraceContext& trace, const char* outcome,
                         double queue_wait_s, double wall_s, size_t bytes_out, bool shed,
                         bool deadline);

    const ServiceOptions opts_;
    /// Uptime epoch for stats().uptime_seconds.
    const std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();
    /// Completed traced-request trees (ring buffer; thread-safe).
    obs::TraceStore traces_;
    ThreadPool pool_;
    CostCache cache_;
    BoundedQueue<Job> queue_;

    mutable std::mutex state_mutex_;
    /// Cancellation flags of queued + running sweeps, by request id. An id
    /// is removed when its sweep finishes; requests sharing an id share a
    /// flag (clients should keep ids unique).
    std::map<std::string, std::shared_ptr<std::atomic<bool>>> cancel_flags_;
    ServiceStats counters_;  ///< queue_depth/in_flight filled in stats()
    size_t in_flight_ = 0;
    std::function<void()> on_shutdown_;
    bool shutdown_requested_ = false;
    bool joined_ = false;

    std::vector<std::thread> workers_;
};

}  // namespace sdlc::serve

#endif  // SDLC_SERVE_SERVICE_H
