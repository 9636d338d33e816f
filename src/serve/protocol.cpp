#include "serve/protocol.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "dse/export.h"
#include "dse/point_wire.h"
#include "util/json.h"
#include "util/json_parse.h"

namespace sdlc::serve {

namespace {

/// Ids are echoed into every event line; keep them short and printable.
constexpr size_t kMaxIdLength = 128;

/// Thrown internally by the field readers; parse_request converts it into
/// a RequestError with the carried code ("invalid_request" unless a more
/// specific code applies, e.g. "invalid_shard").
struct FieldError {
    std::string message;
    std::string code = "invalid_request";
};

[[noreturn]] void reject(const std::string& message) { throw FieldError{message}; }

[[noreturn]] void reject_shard(const std::string& message) {
    throw FieldError{message, "invalid_shard"};
}

bool read_bool(const JsonValue& v, const std::string& key) {
    if (!v.is_bool()) reject("\"" + key + "\" must be a boolean");
    return v.boolean;
}

int read_int(const JsonValue& v, const std::string& key) {
    if (!v.is_number() || v.number != std::floor(v.number) || std::abs(v.number) > 1e9) {
        reject("\"" + key + "\" must be an integer");
    }
    return static_cast<int>(v.number);
}

/// An exhaustive cutoff width, in [0, kMaxExhaustiveWidth]. A wider
/// cutoff would make one point a 2^34+-pair sweep that neither cancel nor
/// deadline can stop.
int read_cutoff_width(const JsonValue& v, const std::string& key) {
    const int width = read_int(v, key);
    if (width < 0 || width > kMaxExhaustiveWidth) {
        reject("\"" + key + "\" must be in [0, " + std::to_string(kMaxExhaustiveWidth) + "]");
    }
    return width;
}

std::string read_string(const JsonValue& v, const std::string& key) {
    if (!v.is_string()) reject("\"" + key + "\" must be a string");
    return v.string;
}

/// Seeds and sample counts accept either a JSON number (exact up to 2^53)
/// or a string ("0x5d1c5eed" works; JSON itself has no hex literals).
uint64_t read_uint64(const JsonValue& v, const std::string& key) {
    if (v.is_string()) {
        // Stricter than strtoull alone: no leading whitespace or sign, and
        // out-of-range values are an error, not a silent clamp to 2^64-1.
        if (v.string.empty() || v.string[0] < '0' || v.string[0] > '9') {
            reject("\"" + key + "\" must be a non-negative integer string");
        }
        char* end = nullptr;
        errno = 0;
        const uint64_t parsed = std::strtoull(v.string.c_str(), &end, 0);
        if (end == nullptr || *end != '\0') reject("\"" + key + "\" is not a valid integer string");
        if (errno == ERANGE) reject("\"" + key + "\" is out of range for 64 bits");
        return parsed;
    }
    if (!v.is_number() || v.number != std::floor(v.number) || v.number < 0 ||
        v.number > 9007199254740992.0 /* 2^53: exact double-integer range */) {
        reject("\"" + key + "\" must be a non-negative integer (or a string)");
    }
    return static_cast<uint64_t>(v.number);
}

void check_known_keys(const JsonValue& obj, const std::string& what,
                      std::initializer_list<const char*> known) {
    for (const auto& [key, value] : obj.object) {
        (void)value;
        bool ok = false;
        for (const char* k : known) ok = ok || key == k;
        if (!ok) reject("unknown " + what + " field \"" + key + "\"");
    }
}

SweepSpec read_spec(const JsonValue& v) {
    if (!v.is_object()) reject("\"spec\" must be an object");
    check_known_keys(v, "spec", {"width", "widths", "min_depth", "max_depth", "variants",
                                 "schemes"});
    SweepSpec spec;
    const JsonValue* width = v.find("width");
    const JsonValue* widths = v.find("widths");
    if (width != nullptr && widths != nullptr) reject("give \"width\" or \"widths\", not both");
    if (width != nullptr) spec.widths = {read_int(*width, "width")};
    if (widths != nullptr) {
        if (!widths->is_array()) reject("\"widths\" must be an array of integers");
        spec.widths.clear();
        for (const JsonValue& w : widths->array) spec.widths.push_back(read_int(w, "widths"));
    }
    if (const JsonValue* d = v.find("min_depth")) spec.min_depth = read_int(*d, "min_depth");
    if (const JsonValue* d = v.find("max_depth")) spec.max_depth = read_int(*d, "max_depth");
    if (const JsonValue* variants = v.find("variants")) {
        if (!variants->is_array()) reject("\"variants\" must be an array of strings");
        spec.variants.clear();
        for (const JsonValue& name : variants->array) {
            MultiplierVariant variant;
            if (!parse_multiplier_variant(read_string(name, "variants"), variant)) {
                reject("unknown variant \"" + name.string + "\"");
            }
            spec.variants.push_back(variant);
        }
    }
    if (const JsonValue* schemes = v.find("schemes")) {
        if (!schemes->is_array()) reject("\"schemes\" must be an array of strings");
        spec.schemes.clear();
        for (const JsonValue& name : schemes->array) {
            AccumulationScheme scheme;
            if (!parse_accumulation_scheme(read_string(name, "schemes"), scheme)) {
                reject("unknown scheme \"" + name.string + "\"");
            }
            spec.schemes.push_back(scheme);
        }
    }
    return spec;
}

EvalOptions read_eval(const JsonValue& v) {
    if (!v.is_object()) reject("\"eval\" must be an object");
    // Thread count is deliberately absent: the service owns one shared
    // ThreadPool and a request cannot resize it.
    check_known_keys(v, "eval",
                     {"seed", "samples", "exhaustive_max_width", "dist", "hardware", "hw_cache"});
    EvalOptions eval;
    if (const JsonValue* seed = v.find("seed")) eval.seed = read_uint64(*seed, "seed");
    if (const JsonValue* samples = v.find("samples")) {
        eval.samples = read_uint64(*samples, "samples");
        // Zero samples would report every sampled point as error-free.
        if (eval.samples == 0) reject("\"samples\" must be >= 1");
    }
    if (const JsonValue* w = v.find("exhaustive_max_width")) {
        eval.exhaustive_max_width = read_cutoff_width(*w, "exhaustive_max_width");
    }
    if (const JsonValue* dist = v.find("dist")) {
        const std::string name = read_string(*dist, "dist");
        if (!parse_operand_distribution(name, eval.distribution)) {
            reject("unknown distribution \"" + name + "\"");
        }
    }
    if (const JsonValue* hw = v.find("hardware")) {
        eval.evaluate_hardware = read_bool(*hw, "hardware");
    }
    if (const JsonValue* cache = v.find("hw_cache")) {
        eval.use_hw_cache = read_bool(*cache, "hw_cache");
    }
    return eval;
}

ObjectiveSet read_objectives(const JsonValue& v) {
    if (!v.is_array()) reject("\"objectives\" must be an array of strings");
    std::vector<std::string> names;
    for (const JsonValue& name : v.array) names.push_back(read_string(name, "objectives"));
    ObjectiveSet set;
    std::string error;
    if (!parse_objective_set(names, set, &error)) reject(error);
    return set;
}

}  // namespace

const char* request_type_name(RequestType t) noexcept {
    switch (t) {
        case RequestType::kSweep: return "sweep";
        case RequestType::kStats: return "stats";
        case RequestType::kMetrics: return "metrics";
        case RequestType::kTrace: return "trace";
        case RequestType::kCancel: return "cancel";
        case RequestType::kShutdown: return "shutdown";
    }
    return "?";
}

bool parse_request(const std::string& line, size_t max_bytes, SweepRequest& out,
                   RequestError& err) {
    err = RequestError{};
    if (line.size() > max_bytes) {
        err.code = "too_large";
        err.message = "request line is " + std::to_string(line.size()) + " bytes (limit " +
                      std::to_string(max_bytes) + ")";
        return false;
    }
    JsonValue root;
    std::string parse_error;
    if (!json_parse(line, root, &parse_error)) {
        err.code = "parse_error";
        err.message = parse_error;
        return false;
    }
    // Best-effort id extraction so even a schema-invalid request gets its
    // error events tagged with the id the client sent.
    if (const JsonValue* id = root.find("id"); id != nullptr && id->is_string()) {
        err.id = id->string.substr(0, kMaxIdLength);
    }
    try {
        if (!root.is_object()) reject("request must be a JSON object");
        const JsonValue* id = root.find("id");
        if (id == nullptr) reject("missing \"id\"");
        out = SweepRequest{};
        out.id = read_string(*id, "id");
        if (out.id.empty()) reject("\"id\" must be non-empty");
        if (out.id.size() > kMaxIdLength) reject("\"id\" exceeds 128 characters");

        out.type = RequestType::kSweep;
        if (const JsonValue* type = root.find("type")) {
            const std::string name = read_string(*type, "type");
            if (name == "sweep") out.type = RequestType::kSweep;
            else if (name == "stats") out.type = RequestType::kStats;
            else if (name == "metrics") out.type = RequestType::kMetrics;
            else if (name == "trace") out.type = RequestType::kTrace;
            else if (name == "cancel") out.type = RequestType::kCancel;
            else if (name == "shutdown") out.type = RequestType::kShutdown;
            else reject("unknown request type \"" + name + "\"");
        }

        switch (out.type) {
            case RequestType::kSweep:
                check_known_keys(root, "request", {"id", "type", "spec", "eval", "objectives",
                                                   "stream_points", "export", "deadline_ms",
                                                   "chunk_bytes", "shard", "point_bits",
                                                   "trace"});
                if (const JsonValue* spec = root.find("spec")) out.spec = read_spec(*spec);
                if (const JsonValue* eval = root.find("eval")) out.eval = read_eval(*eval);
                if (const JsonValue* objectives = root.find("objectives")) {
                    out.objectives = read_objectives(*objectives);
                }
                if (const JsonValue* stream = root.find("stream_points")) {
                    out.stream_points = read_bool(*stream, "stream_points");
                }
                if (const JsonValue* exp = root.find("export")) {
                    out.export_json = read_bool(*exp, "export");
                }
                if (const JsonValue* deadline = root.find("deadline_ms")) {
                    out.deadline_ms = read_uint64(*deadline, "deadline_ms");
                    if (out.deadline_ms == 0) reject("\"deadline_ms\" must be >= 1");
                    // ~11.5 days. Anything bigger is "no deadline" in intent
                    // but would overflow the steady_clock arithmetic
                    // (milliseconds -> int64 nanoseconds) downstream.
                    if (out.deadline_ms > 1000000000) {
                        reject("\"deadline_ms\" must be <= 1000000000");
                    }
                }
                if (const JsonValue* chunk = root.find("chunk_bytes")) {
                    out.chunk_bytes = static_cast<size_t>(read_uint64(*chunk, "chunk_bytes"));
                    // A floor keeps a hostile client from turning one export
                    // into millions of one-byte events.
                    if (out.chunk_bytes < 16) reject("\"chunk_bytes\" must be >= 16");
                }
                if (const JsonValue* shard = root.find("shard")) {
                    if (!shard->is_object()) reject("\"shard\" must be an object");
                    check_known_keys(*shard, "shard", {"lo", "hi"});
                    const JsonValue* lo = shard->find("lo");
                    const JsonValue* hi = shard->find("hi");
                    if (lo == nullptr || hi == nullptr) {
                        reject("\"shard\" requires both \"lo\" and \"hi\"");
                    }
                    out.shard_lo = static_cast<size_t>(read_uint64(*lo, "lo"));
                    out.shard_hi = static_cast<size_t>(read_uint64(*hi, "hi"));
                    // Validate against the enumeration size right here: a
                    // contradictory range gets its own structured code so a
                    // coordinator can tell a planning bug from a typo'd spec.
                    size_t space = 0;
                    try {
                        space = out.spec.count();
                    } catch (const std::invalid_argument& e) {
                        reject(e.what());  // the spec itself is the problem
                    }
                    if (out.shard_lo >= out.shard_hi) {
                        reject_shard("\"shard\" range [" + std::to_string(out.shard_lo) +
                                     ", " + std::to_string(out.shard_hi) + ") is empty");
                    }
                    if (out.shard_hi > space) {
                        reject_shard("\"shard\" hi " + std::to_string(out.shard_hi) +
                                     " exceeds the spec's " + std::to_string(space) +
                                     " points");
                    }
                }
                if (const JsonValue* bits = root.find("point_bits")) {
                    out.point_bits = read_bool(*bits, "point_bits");
                }
                if (const JsonValue* trace = root.find("trace")) {
                    if (!trace->is_object()) reject("\"trace\" must be an object");
                    check_known_keys(*trace, "trace", {"id", "span"});
                    const JsonValue* trace_id = trace->find("id");
                    if (trace_id == nullptr || !trace_id->is_string() ||
                        !obs::parse_trace_id_hex(trace_id->string, out.trace.trace_hi,
                                                 out.trace.trace_lo)) {
                        reject("\"trace\" requires \"id\": 32 lowercase hex digits");
                    }
                    if (const JsonValue* span = trace->find("span")) {
                        if (!span->is_string() ||
                            !obs::parse_span_id_hex(span->string, out.trace.span_id)) {
                            reject("\"trace\" \"span\" must be 16 lowercase hex digits");
                        }
                    }
                    out.trace.valid = true;
                }
                break;
            case RequestType::kCancel: {
                check_known_keys(root, "request", {"id", "type", "target"});
                const JsonValue* target = root.find("target");
                if (target == nullptr) reject("cancel requires \"target\"");
                out.target = read_string(*target, "target");
                if (out.target.empty()) reject("\"target\" must be non-empty");
                break;
            }
            case RequestType::kStats:
            case RequestType::kMetrics:
            case RequestType::kTrace:
            case RequestType::kShutdown:
                check_known_keys(root, "request", {"id", "type"});
                break;
        }
        return true;
    } catch (const FieldError& field) {
        err.code = field.code;
        err.message = field.message;
        return false;
    }
}

// ---- event emission ----

namespace {

std::string event_head(const std::string& id, const char* event) {
    return "{\"id\": " + json_string(id) + ", \"event\": \"" + event + "\"";
}

}  // namespace

std::string accepted_event(const std::string& id, RequestType type, size_t points,
                           const std::string& spec_summary) {
    std::string out = event_head(id, "accepted");
    out += ", \"type\": \"" + std::string(request_type_name(type)) + "\"";
    out += ", \"points\": " + std::to_string(points);
    out += ", \"spec\": " + json_string(spec_summary);
    out += "}";
    return out;
}

std::string point_event(const std::string& id, size_t index, const DesignPoint& point,
                        bool with_bits) {
    // Rank is unknowable mid-stream (dominance needs the whole sweep); the
    // exported rows carry it instead.
    std::string out = event_head(id, "point");
    out += ", \"index\": " + std::to_string(index);
    out += ", \"point\": " + dse_point_json(point, /*rank=*/-1);
    if (with_bits) out += ", \"bits\": \"" + design_point_bits(point) + "\"";
    out += "}";
    return out;
}

std::string summary_event(const std::string& id, const SweepStats& stats, size_t frontier_size,
                          const ObjectiveSet& objectives) {
    std::string out = event_head(id, "summary");
    out += ", \"points\": " + std::to_string(stats.points);
    out += ", \"frontier\": " + std::to_string(frontier_size);
    out += ", \"objectives\": " + objective_set_json(objectives);
    out += ", \"hw_cache\": {\"enabled\": ";
    out += stats.hw_cache_enabled ? "true" : "false";
    out += "}}";
    return out;
}

std::string result_event(const std::string& id, const std::string& dse_json) {
    std::string out = event_head(id, "result");
    out += ", \"format\": \"dse_json\"";
    out += ", \"data\": " + json_string(dse_json);
    out += "}";
    return out;
}

std::string result_chunk_event(const std::string& id, size_t seq, bool last,
                               std::string_view data) {
    std::string out = event_head(id, "result_chunk");
    out += ", \"format\": \"dse_json\"";
    out += ", \"seq\": " + std::to_string(seq);
    out += ", \"last\": ";
    out += last ? "true" : "false";
    out += ", \"data\": " + json_string(std::string(data));
    out += "}";
    return out;
}

std::string metrics_event(const std::string& id, const std::string& prometheus) {
    std::string out = event_head(id, "metrics");
    out += ", \"format\": \"prometheus\"";
    out += ", \"data\": " + json_string(prometheus);
    out += "}";
    return out;
}

void ClusterCounters::add(const ClusterCounters& other) {
    enabled = enabled || other.enabled;
    if (other.shards != 0) shards = other.shards;
    sweeps += other.sweeps;
    local_shards += other.local_shards;
    if (workers.size() < other.workers.size()) workers.resize(other.workers.size());
    for (size_t i = 0; i < other.workers.size(); ++i) {
        ClusterWorkerCounters& mine = workers[i];
        const ClusterWorkerCounters& theirs = other.workers[i];
        if (mine.spec.empty()) mine.spec = theirs.spec;
        mine.dispatched += theirs.dispatched;
        mine.completed += theirs.completed;
        mine.retried += theirs.retried;
        mine.bytes += theirs.bytes;
        mine.busy_seconds += theirs.busy_seconds;
    }
}

std::string stats_event(const std::string& id, const ServiceStats& stats) {
    std::string out = event_head(id, "stats");
    out += ", \"requests\": {\"accepted\": " + std::to_string(stats.accepted);
    out += ", \"completed\": " + std::to_string(stats.completed);
    out += ", \"failed\": " + std::to_string(stats.failed);
    out += ", \"cancelled\": " + std::to_string(stats.cancelled);
    out += ", \"deadline_exceeded\": " + std::to_string(stats.deadline_exceeded);
    out += ", \"overloaded\": " + std::to_string(stats.overloaded);
    out += "}, \"points_evaluated\": " + std::to_string(stats.points_evaluated);
    out += ", \"hw_cache\": {\"hits\": " + std::to_string(stats.cache_hits);
    out += ", \"misses\": " + std::to_string(stats.cache_misses);
    out += ", \"entries\": " + std::to_string(stats.cache_entries);
    out += "}, \"queue_depth\": " + std::to_string(stats.queue_depth);
    out += ", \"in_flight\": " + std::to_string(stats.in_flight);
    out += ", \"busy_seconds\": " + json_number(stats.busy_seconds);
    if (stats.cluster.enabled) {
        // Only a coordinator emits this section, so plain servers' stats
        // events are byte-for-byte what they were before clustering existed.
        out += ", \"cluster\": {\"shards\": " + std::to_string(stats.cluster.shards);
        out += ", \"sweeps\": " + std::to_string(stats.cluster.sweeps);
        out += ", \"local_shards\": " + std::to_string(stats.cluster.local_shards);
        out += ", \"workers\": [";
        for (size_t i = 0; i < stats.cluster.workers.size(); ++i) {
            const ClusterWorkerCounters& w = stats.cluster.workers[i];
            if (i != 0) out += ", ";
            out += "{\"spec\": " + json_string(w.spec);
            out += ", \"dispatched\": " + std::to_string(w.dispatched);
            out += ", \"completed\": " + std::to_string(w.completed);
            out += ", \"retried\": " + std::to_string(w.retried);
            out += ", \"bytes\": " + std::to_string(w.bytes);
            out += ", \"busy_seconds\": " + json_number(w.busy_seconds);
            out += "}";
        }
        out += "]}";
    }
    out += "}";
    return out;
}

std::string error_event(const std::string& id, const std::string& code,
                        const std::string& message) {
    std::string out = event_head(id, "error");
    out += ", \"code\": " + json_string(code);
    out += ", \"message\": " + json_string(message);
    out += "}";
    return out;
}

std::string done_event(const std::string& id, bool ok,
                       const std::vector<obs::Span>& spans) {
    std::string out = event_head(id, "done");
    out += ", \"ok\": ";
    out += ok ? "true" : "false";
    if (!spans.empty()) {
        // Only traced requests carry spans, so untraced done events keep
        // their exact historical bytes (same gating as the stats event's
        // cluster section).
        out += ", \"spans\": " + obs::spans_wire_json(spans);
    }
    out += "}";
    return out;
}

std::string trace_event(const std::string& id, const std::vector<obs::TraceTree>& trees) {
    std::string out = event_head(id, "trace");
    out += ", \"trees\": [";
    for (size_t i = 0; i < trees.size(); ++i) {
        const obs::TraceTree& tree = trees[i];
        if (i != 0) out += ", ";
        out += "{\"request\": " + json_string(tree.request_id);
        out += ", \"trace_id\": \"" + obs::trace_id_hex(tree.trace_hi, tree.trace_lo) + "\"";
        out += ", \"spans\": " + obs::spans_wire_json(tree.spans) + "}";
    }
    out += "]}";
    return out;
}

std::string sweep_request_json(const SweepRequest& request) {
    std::string out = "{\"id\": " + json_string(request.id) + ", \"type\": \"sweep\"";

    out += ", \"spec\": {\"widths\": [";
    for (size_t i = 0; i < request.spec.widths.size(); ++i) {
        if (i != 0) out += ", ";
        out += std::to_string(request.spec.widths[i]);
    }
    out += "], \"min_depth\": " + std::to_string(request.spec.min_depth);
    out += ", \"max_depth\": " + std::to_string(request.spec.max_depth);
    out += ", \"variants\": [";
    for (size_t i = 0; i < request.spec.variants.size(); ++i) {
        if (i != 0) out += ", ";
        out += "\"" + std::string(multiplier_variant_name(request.spec.variants[i])) + "\"";
    }
    out += "], \"schemes\": [";
    for (size_t i = 0; i < request.spec.schemes.size(); ++i) {
        if (i != 0) out += ", ";
        out += "\"" + std::string(accumulation_scheme_name(request.spec.schemes[i])) + "\"";
    }
    out += "]}";

    // Seed and samples ride as decimal strings: exact for the full 64-bit
    // range, where a JSON number would silently round past 2^53.
    out += ", \"eval\": {\"seed\": \"" + std::to_string(request.eval.seed) + "\"";
    out += ", \"samples\": \"" + std::to_string(request.eval.samples) + "\"";
    out += ", \"exhaustive_max_width\": " + std::to_string(request.eval.exhaustive_max_width);
    out += ", \"dist\": \"" +
           std::string(operand_distribution_name(request.eval.distribution)) + "\"";
    out += ", \"hardware\": ";
    out += request.eval.evaluate_hardware ? "true" : "false";
    out += ", \"hw_cache\": ";
    out += request.eval.use_hw_cache ? "true" : "false";
    out += "}";

    out += ", \"objectives\": " + objective_set_json(request.objectives);
    out += ", \"stream_points\": ";
    out += request.stream_points ? "true" : "false";
    out += ", \"export\": ";
    out += request.export_json ? "true" : "false";
    if (request.deadline_ms > 0) {
        out += ", \"deadline_ms\": " + std::to_string(request.deadline_ms);
    }
    if (request.chunk_bytes > 0) {
        out += ", \"chunk_bytes\": " + std::to_string(request.chunk_bytes);
    }
    if (request.shard_lo != 0 || request.shard_hi != 0) {
        out += ", \"shard\": {\"lo\": " + std::to_string(request.shard_lo);
        out += ", \"hi\": " + std::to_string(request.shard_hi) + "}";
    }
    if (request.point_bits) out += ", \"point_bits\": true";
    if (request.trace.valid) {
        out += ", \"trace\": {\"id\": \"" +
               obs::trace_id_hex(request.trace.trace_hi, request.trace.trace_lo) + "\"";
        out += ", \"span\": \"" + obs::span_id_hex(request.trace.span_id) + "\"}";
    }
    out += "}";
    return out;
}

void emit_sweep_results(ResponseSink& sink, const SweepRequest& request,
                        const std::vector<DesignPoint>& points, const SweepStats& stats,
                        obs::SpanRecorder* recorder) {
    obs::ScopedSpan rank_span(recorder, request.trace, "pareto_rank");
    const ParetoResult pareto = pareto_analysis(objective_matrix(points, request.objectives));
    rank_span.stop();
    obs::ScopedSpan serialize_span(recorder, request.trace, "serialize");
    sink.write_line(summary_event(request.id, stats, pareto.frontier.size(),
                                  request.objectives));
    if (request.export_json) {
        if (request.chunk_bytes > 0) {
            // Stream the export through a chunker: bounded event sizes,
            // sequence numbers, and O(chunk) peak buffering. The chunks
            // byte-concatenate to exactly the unchunked payload.
            ResultChunker chunker(sink, request.id, request.chunk_bytes);
            dse_json_stream(points, pareto.rank, stats, request.objectives,
                            [&chunker](std::string_view piece) { chunker.feed(piece); });
            chunker.finish();
        } else {
            sink.write_line(result_event(
                request.id, dse_to_json(points, pareto.rank, stats, request.objectives)));
        }
    }
}

void ResultChunker::feed(std::string_view piece) {
    buffer_.append(piece);
    // Flush only while *more* than one chunk is buffered: the final
    // chunk-sized remainder waits for finish(), which is what guarantees
    // the last chunk is never empty.
    while (buffer_.size() > chunk_bytes_) {
        sink_.write_line(result_chunk_event(id_, seq_, /*last=*/false,
                                            std::string_view(buffer_).substr(0, chunk_bytes_)));
        ++seq_;
        buffer_.erase(0, chunk_bytes_);
    }
}

void ResultChunker::finish() {
    sink_.write_line(result_chunk_event(id_, seq_, /*last=*/true, buffer_));
    ++seq_;
    buffer_.clear();
}

}  // namespace sdlc::serve
