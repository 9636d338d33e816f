#include "serve/metrics.h"

#include <cerrno>
#include <cstdlib>
#include <string_view>

#include "util/json.h"

namespace sdlc::serve {

namespace {

/// Shortest exact-enough rendering for bucket bounds and seconds values
/// ("0.005", "2.5"); Prometheus parses any float literal.
std::string num(double v) { return json_number(v); }

void counter(std::string& out, const std::string& name, const char* help) {
    out += "# HELP " + name + " " + help + "\n";
    out += "# TYPE " + name + " counter\n";
}

void gauge(std::string& out, const std::string& name, const char* help) {
    out += "# HELP " + name + " " + help + "\n";
    out += "# TYPE " + name + " gauge\n";
}

/// Prometheus label values escape backslash, double-quote and newline.
std::string label_escape(const std::string& v) {
    std::string out;
    out.reserve(v.size());
    for (const char c : v) {
        if (c == '\\') out += "\\\\";
        else if (c == '"') out += "\\\"";
        else if (c == '\n') out += "\\n";
        else out += c;
    }
    return out;
}

}  // namespace

std::string prometheus_metrics(const ServiceStats& stats) {
    const std::string p = kMetricsPrefix;
    std::string out;
    out.reserve(2048);

    counter(out, p + "requests_accepted_total", "Requests admitted to the queue.");
    out += p + "requests_accepted_total " + std::to_string(stats.accepted) + "\n";

    counter(out, p + "requests_total", "Requests by terminal outcome.");
    const struct {
        const char* outcome;
        uint64_t value;
    } outcomes[] = {
        {"completed", stats.completed},
        {"failed", stats.failed},
        {"cancelled", stats.cancelled},
        {"deadline_exceeded", stats.deadline_exceeded},
        {"overloaded", stats.overloaded},
    };
    for (const auto& o : outcomes) {
        out += p + "requests_total{outcome=\"" + o.outcome + "\"} " +
               std::to_string(o.value) + "\n";
    }

    counter(out, p + "points_evaluated_total", "Design points evaluated across all sweeps.");
    out += p + "points_evaluated_total " + std::to_string(stats.points_evaluated) + "\n";

    counter(out, p + "hw_cache_lookups_total",
            "Synthesis-cache lookups by result (raw counters; scheduling-dependent).");
    out += p + "hw_cache_lookups_total{result=\"hit\"} " + std::to_string(stats.cache_hits) +
           "\n";
    out += p + "hw_cache_lookups_total{result=\"miss\"} " + std::to_string(stats.cache_misses) +
           "\n";

    gauge(out, p + "hw_cache_entries", "Distinct memoized designs resident in the cache.");
    out += p + "hw_cache_entries " + std::to_string(stats.cache_entries) + "\n";

    gauge(out, p + "queue_depth", "Requests waiting in the bounded queue.");
    out += p + "queue_depth " + std::to_string(stats.queue_depth) + "\n";

    gauge(out, p + "in_flight_requests", "Requests being processed right now.");
    out += p + "in_flight_requests " + std::to_string(stats.in_flight) + "\n";

    counter(out, p + "busy_seconds_total", "Summed sweep wall time.");
    out += p + "busy_seconds_total " + num(stats.busy_seconds) + "\n";

    gauge(out, p + "cluster_enabled", "1 when this instance coordinates a worker fleet.");
    out += p + "cluster_enabled " + std::string(stats.cluster.enabled ? "1" : "0") + "\n";
    if (stats.cluster.enabled) {
        gauge(out, p + "cluster_shards", "Configured shard count per distributed sweep.");
        out += p + "cluster_shards " + std::to_string(stats.cluster.shards) + "\n";

        counter(out, p + "cluster_sweeps_total", "Distributed sweeps coordinated.");
        out += p + "cluster_sweeps_total " + std::to_string(stats.cluster.sweeps) + "\n";

        counter(out, p + "cluster_local_shards_total",
                "Shards executed locally because no worker could serve them.");
        out += p + "cluster_local_shards_total " +
               std::to_string(stats.cluster.local_shards) + "\n";

        counter(out, p + "cluster_shards_total",
                "Shard dispatch outcomes per worker (dispatched/completed/retried).");
        for (const ClusterWorkerCounters& w : stats.cluster.workers) {
            const std::string labels = "{worker=\"" + label_escape(w.spec) + "\"";
            out += p + "cluster_shards_total" + labels + ",result=\"dispatched\"} " +
                   std::to_string(w.dispatched) + "\n";
            out += p + "cluster_shards_total" + labels + ",result=\"completed\"} " +
                   std::to_string(w.completed) + "\n";
            out += p + "cluster_shards_total" + labels + ",result=\"retried\"} " +
                   std::to_string(w.retried) + "\n";
        }

        counter(out, p + "cluster_worker_bytes_total",
                "Event bytes received from each worker.");
        for (const ClusterWorkerCounters& w : stats.cluster.workers) {
            out += p + "cluster_worker_bytes_total{worker=\"" + label_escape(w.spec) +
                   "\"} " + std::to_string(w.bytes) + "\n";
        }

        counter(out, p + "cluster_worker_busy_seconds_total",
                "Summed shard round-trip wall time per worker.");
        for (const ClusterWorkerCounters& w : stats.cluster.workers) {
            out += p + "cluster_worker_busy_seconds_total{worker=\"" + label_escape(w.spec) +
                   "\"} " + num(w.busy_seconds) + "\n";
        }
    }

    const std::string hist = p + "request_duration_seconds";
    out += "# HELP " + hist + " Per-request wall latency, arrival to terminal event.\n";
    out += "# TYPE " + hist + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < LatencyHistogram::kBounds.size(); ++i) {
        cumulative += stats.latency.counts[i];
        out += hist + "_bucket{le=\"" + num(LatencyHistogram::kBounds[i]) + "\"} " +
               std::to_string(cumulative) + "\n";
    }
    cumulative += stats.latency.counts.back();
    out += hist + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += hist + "_sum " + num(stats.latency.sum) + "\n";
    out += hist + "_count " + std::to_string(stats.latency.count) + "\n";

    const std::string stage = p + "stage_duration_seconds";
    out += "# HELP " + stage + " Per-stage request latency (queue wait, evaluation, "
           "serialization).\n";
    out += "# TYPE " + stage + " histogram\n";
    const struct {
        const char* name;
        const LatencyHistogram* hist;
    } stages[] = {
        {"queue_wait", &stats.queue_wait},
        {"evaluate", &stats.stage_evaluate},
        {"serialize", &stats.stage_serialize},
    };
    for (const auto& s : stages) {
        const std::string labels = std::string("stage=\"") + s.name + "\"";
        uint64_t c = 0;
        for (size_t i = 0; i < LatencyHistogram::kBounds.size(); ++i) {
            c += s.hist->counts[i];
            out += stage + "_bucket{" + labels + ",le=\"" + num(LatencyHistogram::kBounds[i]) +
                   "\"} " + std::to_string(c) + "\n";
        }
        c += s.hist->counts.back();
        out += stage + "_bucket{" + labels + ",le=\"+Inf\"} " + std::to_string(c) + "\n";
        out += stage + "_sum{" + labels + "} " + num(s.hist->sum) + "\n";
        out += stage + "_count{" + labels + "} " + std::to_string(s.hist->count) + "\n";
    }

    gauge(out, p + "uptime_seconds", "Seconds since the service started.");
    out += p + "uptime_seconds " + num(stats.uptime_seconds) + "\n";

    gauge(out, p + "build_info", "Constant 1, labeled with the build version.");
    out += p + "build_info{version=\"" + label_escape(kBuildVersion) + "\"} 1\n";
    return out;
}

bool validate_exposition(const std::string& text, std::string* error) {
    const auto fail = [error](const std::string& message) {
        if (error != nullptr) *error = message;
        return false;
    };
    if (text.empty()) return fail("exposition text is empty");
    size_t samples = 0;
    size_t pos = 0;
    size_t line_no = 0;
    while (pos < text.size()) {
        ++line_no;
        size_t end = text.find('\n', pos);
        if (end == std::string::npos) end = text.size();
        const std::string_view line(text.data() + pos, end - pos);
        pos = end + 1;
        if (line.empty()) continue;
        if (line[0] == '#') continue;  // HELP/TYPE/comment
        const std::string where = "exposition line " + std::to_string(line_no);
        // name
        size_t i = 0;
        const auto name_start = [](char c) {
            return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
        };
        const auto name_char = [&name_start](char c) {
            return name_start(c) || (c >= '0' && c <= '9');
        };
        if (!name_start(line[0])) return fail(where + ": bad metric name");
        while (i < line.size() && name_char(line[i])) ++i;
        // optional {labels}
        if (i < line.size() && line[i] == '{') {
            bool in_quote = false;
            bool closed = false;
            for (++i; i < line.size(); ++i) {
                const char c = line[i];
                if (in_quote) {
                    if (c == '\\') {
                        ++i;  // escaped char inside a label value
                    } else if (c == '"') {
                        in_quote = false;
                    }
                } else if (c == '"') {
                    in_quote = true;
                } else if (c == '}') {
                    closed = true;
                    ++i;
                    break;
                }
            }
            if (!closed) return fail(where + ": unterminated label set");
        }
        if (i >= line.size() || line[i] != ' ') return fail(where + ": missing sample value");
        while (i < line.size() && line[i] == ' ') ++i;
        const std::string value(line.substr(i));
        if (value.empty()) return fail(where + ": missing sample value");
        if (value != "+Inf" && value != "-Inf" && value != "NaN") {
            char* parsed_end = nullptr;
            errno = 0;
            (void)strtod(value.c_str(), &parsed_end);
            // A trailing integer token is a (legacy) timestamp; anything
            // else after the float is garbage.
            if (parsed_end == value.c_str()) return fail(where + ": bad sample value");
            for (const char* q = parsed_end; *q != '\0'; ++q) {
                if (*q != ' ' && !(*q >= '0' && *q <= '9') && *q != '-') {
                    return fail(where + ": trailing garbage after sample value");
                }
            }
        }
        ++samples;
    }
    if (samples == 0) return fail("exposition text carries no samples");
    return true;
}

}  // namespace sdlc::serve
