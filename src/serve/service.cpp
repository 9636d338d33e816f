#include "serve/service.h"

#include <stdexcept>
#include <string_view>

#include "dse/evaluator.h"
#include "serve/metrics.h"
#include "util/json.h"

namespace sdlc::serve {

namespace {

/// Per-request byte meter over the connection sink: forwards every line and
/// tallies what this request cost on the wire (for the access log).
class CountingSink final : public ResponseSink {
public:
    explicit CountingSink(ResponseSink& inner) : inner_(inner) {}
    void write_line(const std::string& line) override {
        bytes_.fetch_add(line.size() + 1, std::memory_order_relaxed);
        inner_.write_line(line);
    }
    [[nodiscard]] size_t bytes() const noexcept {
        return bytes_.load(std::memory_order_relaxed);
    }

private:
    ResponseSink& inner_;
    std::atomic<size_t> bytes_{0};
};

/// Recorder seed for a tier handling a traced request: derived from the
/// inbound context so every process in the request's path draws span ids
/// from a distinct deterministic stream (no cross-tier id collisions).
[[nodiscard]] uint64_t recorder_seed(const obs::TraceContext& ctx, uint64_t tier_salt) {
    return ctx.trace_lo ^ ctx.span_id ^ tier_salt;
}

constexpr uint64_t kServeSalt = 0x7365727665ULL;  // "serve"

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

SweepService::SweepService(const ServiceOptions& opts)
    : opts_(opts), traces_(kTraceCapacity), pool_(opts.eval_threads),
      queue_(opts.queue_capacity) {
    if (!opts_.cluster.workers.empty()) {
        // The cluster section reads the same before the first sweep as
        // after: enabled, the shard count, one row per configured worker.
        counters_.cluster.enabled = true;
        counters_.cluster.shards = opts_.cluster.shards;
        for (const std::string& spec : opts_.cluster.workers) {
            counters_.cluster.workers.push_back({spec});
        }
    }
    const unsigned workers = opts_.request_workers == 0 ? 1 : opts_.request_workers;
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

SweepService::~SweepService() { shutdown(); }

bool SweepService::submit_line(const std::string& line, std::shared_ptr<ResponseSink> sink) {
    const auto parse_start = std::chrono::steady_clock::now();
    SweepRequest request;
    RequestError error;
    if (!parse_request(line, opts_.max_request_bytes, request, error)) {
        reject(*sink, error.id, "invalid", {}, error.code, error.message,
               seconds_since(parse_start));
        return !shutdown_requested();
    }
    const double parse_s = seconds_since(parse_start);
    // Cancels act on service state, not on the sweep pipeline: answer them
    // inline so a cancel is never stuck in the queue behind its target.
    if (request.type == RequestType::kCancel) {
        answer_control(request, *sink, 0.0, std::chrono::steady_clock::now());
        return !shutdown_requested();
    }

    const auto arrival = std::chrono::steady_clock::now();
    Job job;
    job.request = request;
    job.sink = sink;
    job.arrival = arrival;
    job.parse_s = parse_s;
    const bool sweep = request.type == RequestType::kSweep;
    bool created_flag = false;
    if (sweep) {
        std::lock_guard<std::mutex> lock(state_mutex_);
        auto& flag = cancel_flags_[request.id];
        if (flag == nullptr) {
            flag = std::make_shared<std::atomic<bool>>(false);
            created_flag = true;
        }
        job.cancel = flag;
    }
    const auto cancel_flag = job.cancel;  // push moves the job away

    // Control requests (stats, metrics, trace, shutdown) must stay
    // serviceable during the very overload they exist to observe and
    // resolve, so they never block on — or get shed from — a full queue:
    // they ride the queue when there is room (normal FIFO semantics) and
    // are answered inline when there is not. Sweeps block (backpressure)
    // unless --reject-overload turns a full queue into `overloaded`
    // rejections.
    const bool blocking = sweep && !opts_.reject_when_full;
    const bool pushed = blocking ? queue_.push(std::move(job)) : queue_.try_push(std::move(job));
    if (pushed) {
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++counters_.accepted;
        return true;
    }
    if (created_flag) {
        // Only retract the flag this submission created: a rejected
        // duplicate id must not strip a queued/running sweep of its
        // cancellability.
        std::lock_guard<std::mutex> lock(state_mutex_);
        const auto it = cancel_flags_.find(request.id);
        if (it != cancel_flags_.end() && it->second == cancel_flag) cancel_flags_.erase(it);
    }
    if (queue_.closed()) {
        reject(*sink, request.id, request_type_name(request.type), request.trace,
               "shutting_down", "service is draining; request rejected");
        return false;
    }
    if (!sweep) {
        // Full queue, control request: answer it right here on the
        // submitting thread. The counters are momentary either way.
        answer_control(request, *sink, 0.0, arrival);
        return !shutdown_requested();
    }
    // Load-shedding rejection: the service stays up, the caller keeps
    // reading its connection, only this request is refused.
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++counters_.overloaded;
    }
    reject(*sink, request.id, "sweep", request.trace, "overloaded",
           "request queue is full (capacity " + std::to_string(queue_.capacity()) + ")", 0.0,
           /*shed=*/true);
    return true;
}

void SweepService::reject_oversized_line(ResponseSink& sink) {
    reject(sink, "", "invalid", {}, "too_large",
           "unterminated request line exceeded the size cap");
}

void SweepService::reject(ResponseSink& sink, const std::string& id, const char* verb,
                          const obs::TraceContext& trace, const std::string& code,
                          const std::string& message, double wall_s, bool shed) {
    const std::string err = error_event(id, code, message);
    const std::string done = done_event(id, false);
    sink.write_line(err);
    sink.write_line(done);
    access_log_line(id, verb, trace, code.c_str(), 0.0, wall_s, err.size() + done.size() + 2,
                    shed, false);
}

void SweepService::answer_control(const SweepRequest& request, ResponseSink& sink,
                                  double queue_wait_s,
                                  std::chrono::steady_clock::time_point arrival) {
    CountingSink counting(sink);
    switch (request.type) {
        case RequestType::kStats:
            counting.write_line(stats_event(request.id, stats()));
            break;
        case RequestType::kMetrics:
            counting.write_line(metrics_event(request.id, prometheus_metrics(stats())));
            break;
        case RequestType::kTrace:
            counting.write_line(trace_event(request.id, trace_trees()));
            break;
        case RequestType::kShutdown:
            request_shutdown();
            break;
        case RequestType::kCancel: {
            std::shared_ptr<std::atomic<bool>> flag;
            {
                std::lock_guard<std::mutex> lock(state_mutex_);
                const auto it = cancel_flags_.find(request.target);
                if (it != cancel_flags_.end()) flag = it->second;
            }
            if (flag == nullptr) {
                reject(sink, request.id, "cancel", request.trace, "unknown_target",
                       "no queued or running sweep with id \"" + request.target + "\"",
                       seconds_since(arrival));
                return;
            }
            flag->store(true, std::memory_order_relaxed);
            break;
        }
        case RequestType::kSweep:
            return;  // unreachable: sweeps run in run_sweep
    }
    counting.write_line(done_event(request.id, true));
    access_log_line(request.id, request_type_name(request.type), request.trace, "ok",
                    queue_wait_s, seconds_since(arrival), counting.bytes(), false, false);
}

void SweepService::request_shutdown() {
    std::vector<std::function<void()>> hooks;
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (shutdown_requested_) return;
        shutdown_requested_ = true;
        hooks.swap(on_shutdown_);
    }
    queue_.close();
    for (const std::function<void()>& hook : hooks) {
        if (hook) hook();
    }
}

void SweepService::shutdown() {
    request_shutdown();
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (joined_) return;
        joined_ = true;
    }
    for (std::thread& worker : workers_) worker.join();
}

bool SweepService::shutdown_requested() const {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return shutdown_requested_;
}

void SweepService::add_on_shutdown(std::function<void()> hook) {
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (!shutdown_requested_) {
            on_shutdown_.push_back(std::move(hook));
            return;
        }
    }
    // Shutdown was requested before the front-end got to add its hook (a
    // listener thread that starts late): fire it now, or the accept loop
    // it unblocks would never end.
    if (hook) hook();
}

ServiceStats SweepService::stats() const {
    ServiceStats out;
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        out = counters_;
        out.in_flight = in_flight_;
    }
    out.queue_depth = queue_.size();
    out.uptime_seconds = seconds_since(started_);
    const CostCache::Stats cache = cache_.stats();
    out.cache_hits = cache.hits;
    out.cache_misses = cache.misses;
    out.cache_entries = cache_.size();
    return out;
}

void SweepService::worker_loop() {
    while (std::optional<Job> job = queue_.pop()) {
        const double queue_wait_s = seconds_since(job->arrival);
        {
            std::lock_guard<std::mutex> lock(state_mutex_);
            ++in_flight_;
            counters_.queue_wait.observe(queue_wait_s);
        }
        if (job->request.type == RequestType::kSweep) {
            run_sweep(*job, queue_wait_s);
        } else {
            answer_control(job->request, *job->sink, queue_wait_s, job->arrival);
        }
        {
            std::lock_guard<std::mutex> lock(state_mutex_);
            --in_flight_;
        }
    }
}

void SweepService::run_sweep(const Job& job, double queue_wait_s) {
    const SweepRequest& request = job.request;
    CountingSink sink(*job.sink);
    const bool traced = request.trace.valid;
    // Per-request recorder: concurrent traced requests never share span
    // streams, and the seed keeps ids deterministic yet distinct from the
    // client's own stream.
    obs::SpanRecorder recorder("serve", recorder_seed(request.trace, kServeSalt));
    obs::SpanRecorder* rec = traced ? &recorder : nullptr;
    if (rec != nullptr) {
        // parse and queue_wait happened before the recorder existed;
        // reconstruct them from the measured durations (recorder epoch =
        // worker pickup, so they sit just left of time zero).
        obs::Span queue_span;
        queue_span.name = "queue_wait";
        queue_span.span_id = recorder.new_span_id();
        queue_span.parent_id = request.trace.span_id;
        queue_span.start_s = -queue_wait_s;
        queue_span.dur_s = queue_wait_s;
        if (job.parse_s > 0.0) {
            obs::Span parse_span;
            parse_span.name = "parse";
            parse_span.span_id = recorder.new_span_id();
            parse_span.parent_id = request.trace.span_id;
            parse_span.start_s = -queue_wait_s - job.parse_s;
            parse_span.dur_s = job.parse_s;
            recorder.record(parse_span);
        }
        recorder.record(queue_span);
    }
    const char* outcome = "error";
    double evaluate_s = 0.0;
    double serialize_s = 0.0;
    bool deadline_hit = false;
    bool ok = false;
    try {
        // Validate the spec before announcing acceptance so an unbuildable
        // sweep fails with a single error instead of accepted-then-error.
        const size_t count = request.spec.count();
        // A shard-restricted request announces the points it will actually
        // stream, not the whole space it is a slice of.
        const size_t effective =
            request.shard_hi > 0 ? request.shard_hi - request.shard_lo : count;
        sink.write_line(accepted_event(request.id, request.type, effective,
                                       request.spec.describe()));

        EvalOptions eval = request.eval;
        eval.pool = &pool_;
        // The resident cache; evaluate_sweep drops it when use_hw_cache is
        // off.
        eval.hw_cache = &cache_;
        eval.cancel = job.cancel.get();
        if (request.deadline_ms > 0) {
            // The budget runs from arrival, not from here: time spent queued
            // behind other requests counts, so an overloaded service sheds
            // expired work with one cheap check instead of evaluating it.
            eval.deadline = job.arrival + std::chrono::milliseconds(request.deadline_ms);
        }
        if (request.stream_points) {
            eval.on_point = [&](size_t index, const DesignPoint& point) {
                sink.write_line(point_event(request.id, index, point, request.point_bits));
            };
        }
        eval.shard_lo = request.shard_lo;
        eval.shard_hi = request.shard_hi;
        eval.recorder = rec;
        eval.trace = request.trace;

        SweepStats sweep_stats;
        const auto eval_start = std::chrono::steady_clock::now();
        std::vector<DesignPoint> points;
        if (opts_.cluster.workers.empty()) {
            points = evaluate_sweep(request.spec, eval, &sweep_stats);
        } else {
            ClusterCounters delta;
            const auto fold = [&] {
                std::lock_guard<std::mutex> lock(state_mutex_);
                counters_.cluster.add(delta);
            };
            try {
                points = cluster::distributed_sweep(request.spec, eval, opts_.cluster,
                                                    &sweep_stats, &delta);
            } catch (...) {
                fold();  // dispatch/retry counts of a failed sweep stay visible
                throw;
            }
            fold();
        }
        evaluate_s = seconds_since(eval_start);
        const auto serialize_start = std::chrono::steady_clock::now();
        emit_sweep_results(sink, request, points, sweep_stats, rec);
        serialize_s = seconds_since(serialize_start);

        std::lock_guard<std::mutex> lock(state_mutex_);
        ++counters_.completed;
        counters_.points_evaluated += sweep_stats.points;
        counters_.busy_seconds += sweep_stats.wall_seconds;
        ok = true;
        outcome = "ok";
    } catch (const SweepCancelled&) {
        sink.write_line(error_event(request.id, "cancelled", "sweep cancelled by request"));
        outcome = "cancelled";
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++counters_.cancelled;
    } catch (const SweepDeadlineExceeded&) {
        sink.write_line(error_event(
            request.id, "deadline_exceeded",
            "sweep exceeded its deadline_ms budget of " + std::to_string(request.deadline_ms) +
                " ms; the points streamed so far are a prefix of the full sweep"));
        outcome = "deadline_exceeded";
        deadline_hit = true;
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++counters_.deadline_exceeded;
    } catch (const std::invalid_argument& e) {
        sink.write_line(error_event(request.id, "invalid_request", e.what()));
        outcome = "invalid_request";
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++counters_.failed;
    } catch (const std::exception& e) {
        sink.write_line(error_event(request.id, "internal_error", e.what()));
        outcome = "internal_error";
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++counters_.failed;
    }
    const double wall_s = seconds_since(job.arrival);
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        const auto it = cancel_flags_.find(request.id);
        if (it != cancel_flags_.end() && it->second == job.cancel) cancel_flags_.erase(it);
        counters_.latency.observe(wall_s);
        counters_.stage_evaluate.observe(evaluate_s);
        counters_.stage_serialize.observe(serialize_s);
    }
    std::vector<obs::Span> spans;
    if (rec != nullptr) {
        spans = recorder.take();
        obs::TraceTree tree;
        tree.request_id = request.id;
        tree.trace_hi = request.trace.trace_hi;
        tree.trace_lo = request.trace.trace_lo;
        tree.spans = spans;
        traces_.add(std::move(tree));
    }
    sink.write_line(done_event(request.id, ok, spans));
    access_log_line(request.id, "sweep", request.trace, outcome, queue_wait_s, wall_s,
                    sink.bytes(), false, deadline_hit);
}

void SweepService::access_log_line(const std::string& id, const char* verb,
                                   const obs::TraceContext& trace, const char* outcome,
                                   double queue_wait_s, double wall_s, size_t bytes_out,
                                   bool shed, bool deadline) {
    if (opts_.access_log == nullptr) return;
    std::string line = "{\"tier\": \"serve\", \"id\": " + json_string(id);
    line += ", \"verb\": " + json_string(verb);
    if (trace.valid) {
        line += ", \"trace_id\": " +
                json_string(obs::trace_id_hex(trace.trace_hi, trace.trace_lo));
    }
    line += ", \"outcome\": " + json_string(outcome);
    line += ", \"queue_wait_s\": " + json_number(queue_wait_s);
    line += ", \"wall_s\": " + json_number(wall_s);
    line += ", \"bytes_out\": " + json_number(static_cast<double>(bytes_out));
    line += ", \"shed\": ";
    line += shed ? "true" : "false";
    line += ", \"deadline\": ";
    line += deadline ? "true" : "false";
    line += "}";
    opts_.access_log->write_line(line);
}

}  // namespace sdlc::serve
