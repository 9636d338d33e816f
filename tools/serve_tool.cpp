// serve_tool — long-lived DSE service front-end and client.
//
// Server modes (one SweepService: shared ThreadPool + CostCache across all
// requests; see src/serve/protocol.h for the NDJSON wire format):
//
//   serve_tool                       requests on stdin, events on stdout
//   serve_tool --listen PATH         Unix-domain socket server at PATH
//   serve_tool --listen-tcp H:P      TCP server (port 0 = ephemeral,
//                                    actual endpoint printed to stderr)
//
// Client mode (against a socket server; destination is --socket PATH or
// --tcp HOST:PORT):
//
//   serve_tool --client FILE --socket PATH [--output FILE] [--quiet]
//
// sends every request line of FILE ('-' = stdin), prints the event stream,
// and exits 0 only if every request succeeded (any server `error` event,
// failed `done`, or a dropped stream exits non-zero). --output extracts
// the `result` event's embedded dse_json export to a file — byte-identical
// to what `dse_tool --json` writes for the same sweep, however warm either
// cache is — and reassembles chunked exports (`result_chunk` events) the
// same way.
//
// Scrape mode (for a Prometheus textfile collector / cron scraper):
//
//   serve_tool --scrape --socket PATH   prints the raw Prometheus text
//
// Shutdown: a {"type": "shutdown"} request stops intake, drains every
// queued request, then the server exits; so does EOF on stdin (stdio
// mode). Requests already accepted always get their full event stream.
#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "cluster/coordinator.h"
#include "obs/access_log.h"
#include "obs/trace.h"
#include "serve/http.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/socket.h"
#include "serve/transport.h"
#include "util/cli.h"
#include "util/json_parse.h"

namespace {

using namespace sdlc;
using namespace sdlc::serve;

[[noreturn]] void usage(const std::string& msg = "") {
    if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
    std::cerr <<
        "usage: serve_tool [options]\n"
        "  server (default: NDJSON requests on stdin, events on stdout):\n"
        "    --listen PATH        serve on a Unix-domain socket instead\n"
        "    --listen-tcp HOST:PORT  serve on a TCP socket (port 0 = ephemeral)\n"
        "    --listen-http HOST:PORT  HTTP/1.1 front door (port 0 = ephemeral):\n"
        "                         POST /v1/sweep (NDJSON body, chunked x-ndjson\n"
        "                         response, byte-identical event lines),\n"
        "                         GET /metrics, GET /healthz; combinable with\n"
        "                         --listen or --listen-tcp\n"
        "    --auth-token-file FILE  require `Authorization: Bearer <token>` on\n"
        "                         HTTP /v1/sweep and /metrics (constant-time\n"
        "                         compare; 401 on mismatch; /healthz stays open)\n"
        "    --quota-rps N        per-client HTTP sweep admissions per second\n"
        "                         (keyed by bearer token, else peer address;\n"
        "                         exhausted clients get 429 + Retry-After)\n"
        "    --quota-burst N      token-bucket depth above the steady rate\n"
        "                         (default: same as --quota-rps)\n"
        "    --threads N          evaluation ThreadPool size (default: hardware)\n"
        "    --request-workers N  concurrent in-flight requests (default 2)\n"
        "    --queue-capacity N   bounded request queue size (default 64)\n"
        "    --max-request-bytes N  reject longer request lines (default 1 MiB)\n"
        "    --reject-overload    answer a full queue with an `overloaded` error\n"
        "                         event instead of blocking the connection\n"
        "  observability (server modes):\n"
        "    --access-log FILE    append one JSON line per request (trace_id, verb,\n"
        "                         outcome, queue_wait_s, wall_s, bytes_out, flags)\n"
        "    --trace-out FILE     at exit, write the retained traced-request trees\n"
        "                         as Chrome trace-event JSON (Perfetto-loadable)\n"
        "  cluster (server options; sweeps are sharded across the workers and\n"
        "  merged back byte-identically to a single-node run):\n"
        "    --workers LIST       comma list of serve_tool replicas to fan sweep\n"
        "                         shards out to (unix:PATH or HOST:PORT each)\n"
        "    --shards N           fixed shards per sweep (default 32); the cut is\n"
        "                         independent of worker count, so retries rerun\n"
        "                         exactly the same indices\n"
        "    --shard-timeout-ms N per-shard read-silence budget before a worker\n"
        "                         is declared dead (default 60000; 0 = none)\n"
        "    --shard-retries N    remote re-dispatches per shard after its first\n"
        "                         failure before it runs locally (default 2)\n"
        "  client:\n"
        "    --client FILE        send FILE's request lines ('-' = stdin)\n"
        "    --socket PATH        server Unix socket to connect to\n"
        "    --tcp HOST:PORT      server TCP endpoint to connect to\n"
        "    --output FILE        write the result event's dse_json export here\n"
        "                         (reassembles chunked result_chunk streams)\n"
        "    --quiet              do not echo the event stream to stdout\n"
        "  scrape:\n"
        "    --scrape             fetch Prometheus metrics (with --socket/--tcp)\n"
        "                         and print the raw exposition text to stdout\n"
        "    --http HOST:PORT     scrape GET /metrics from an HTTP front door\n"
        "                         instead (--auth-token-file adds the bearer\n"
        "                         token); the text is validated the same way\n";
    std::exit(msg.empty() ? 0 : 2);
}

ServiceOptions service_options(const CommandLine& cli) {
    ServiceOptions opts;
    opts.eval_threads = static_cast<unsigned>(cli.get_int("--threads", 0, 0));
    opts.request_workers = static_cast<unsigned>(cli.get_int("--request-workers", 2, 0));
    opts.queue_capacity = static_cast<size_t>(cli.get_int("--queue-capacity", 64, 0));
    opts.max_request_bytes = static_cast<size_t>(cli.get_int(
        "--max-request-bytes", static_cast<int>(kDefaultMaxRequestBytes), 0));
    opts.reject_when_full = cli.has("--reject-overload");
    if (const std::string path = cli.get("--access-log"); !path.empty()) {
        std::string error;
        opts.access_log = obs::AccessLog::open(path, &error);
        if (opts.access_log == nullptr) usage("--access-log: " + error);
    }
    return opts;
}

/// Writes the service's retained trace trees as Chrome trace-event JSON.
/// Best-effort at exit: a write failure is reported but never changes the
/// server's exit status (observability must not fail the workload).
void write_trace_out(const CommandLine& cli, const SweepService& service) {
    const std::string path = cli.get("--trace-out");
    if (path.empty()) return;
    std::ofstream out(path, std::ios::binary);
    out << obs::chrome_trace_json(service.trace_trees());
    if (!out.flush()) std::cerr << "serve_tool: cannot write " << path << "\n";
}

/// Builds the service for a server mode: a plain SweepService, or a
/// CoordinatorService fanning sweep shards out to --workers replicas
/// (serve/socket.h endpoint grammar: unix:PATH or HOST:PORT).
std::unique_ptr<SweepService> make_service(const CommandLine& cli, const ServiceOptions& opts) {
    cluster::ClusterOptions cluster = cluster::cluster_options_from(cli);
    if (cluster.workers.empty()) return std::make_unique<SweepService>(opts);
    return std::make_unique<cluster::CoordinatorService>(opts, std::move(cluster));
}

/// Client/scrape destination: --socket PATH or --tcp HOST:PORT. Returns a
/// connected fd (caller owns it).
int connect_destination(const CommandLine& cli) {
    const std::string socket_path = cli.get("--socket");
    const std::string tcp_spec = cli.get("--tcp");
    if (socket_path.empty() == tcp_spec.empty()) {
        usage("give exactly one of --socket PATH or --tcp HOST:PORT");
    }
    if (!socket_path.empty()) return unix_socket_connect(socket_path);
    std::string host;
    uint16_t port = 0;
    std::string error;
    if (!parse_host_port(tcp_spec, host, port, &error, /*allow_port_zero=*/false)) {
        usage("--tcp: " + error);
    }
    if (host.empty()) host = "127.0.0.1";
    return tcp_connect(host, port);
}

// ------------------------------------------------------------ stdio mode ----

int run_stdio_server(const CommandLine& cli) {
    const ServiceOptions opts = service_options(cli);
    const std::unique_ptr<SweepService> service_ptr = make_service(cli, opts);
    SweepService& service = *service_ptr;
    const auto sink = std::make_shared<OstreamSink>(std::cout);

    // stdin is read on its own thread so a shutdown request can end the
    // server even while the peer keeps the pipe open: the main thread
    // waits for EOF *or* shutdown, whichever comes first, then drains.
    std::mutex mutex;
    std::condition_variable cv;
    bool reader_done = false;
    service.set_on_shutdown([&] {
        std::lock_guard<std::mutex> lock(mutex);
        cv.notify_all();
    });
    std::thread reader([&] {
        LineReader lines(STDIN_FILENO, opts.max_request_bytes + 1);
        std::string line;
        while (lines.next(line)) {
            if (line.empty()) continue;
            if (!service.submit_line(line, sink)) break;  // draining: stop reading
        }
        if (lines.overflowed()) service.reject_oversized_line(*sink);
        {
            std::lock_guard<std::mutex> lock(mutex);
            reader_done = true;
        }
        cv.notify_all();
    });

    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return reader_done || service.shutdown_requested(); });
    }
    service.shutdown();  // drain queued requests, join workers
    write_trace_out(cli, service);
    if (reader_done) {
        reader.join();
        return 0;
    }
    // Shutdown arrived while the reader is still blocked on an open stdin;
    // every accepted request has drained, so leave the reader behind and
    // end the process (its only remaining act would be rejecting input).
    reader.detach();
    std::cout.flush();
    ::_exit(0);
}

// ----------------------------------------------------------- socket mode ----

int run_socket_server(const CommandLine& cli) {
    // Bind every listener before spinning up the service so a bad endpoint
    // fails fast without spawning any worker.
    std::unique_ptr<SocketListener> line_listener;
    if (const std::string path = cli.get("--listen"); !path.empty()) {
        line_listener = std::make_unique<UnixSocketServer>(path);
    } else if (cli.has("--listen-tcp")) {
        std::string host;
        uint16_t port = 0;
        std::string error;
        if (!parse_host_port(cli.get("--listen-tcp"), host, port, &error)) {
            usage("--listen-tcp: " + error);
        }
        line_listener = std::make_unique<TcpSocketServer>(host, port);
    }
    std::unique_ptr<TcpSocketServer> http_listener;
    if (cli.has("--listen-http")) {
        std::string host;
        uint16_t port = 0;
        std::string error;
        if (!parse_host_port(cli.get("--listen-http"), host, port, &error)) {
            usage("--listen-http: " + error);
        }
        http_listener = std::make_unique<TcpSocketServer>(host, port);
    }
    const ServiceOptions opts = service_options(cli);
    const std::unique_ptr<SweepService> service = make_service(cli, opts);

    HttpOptions http;
    if (http_listener != nullptr) {
        // The HTTP and line front ends share one request-size cap, so a
        // request body is judged by the same limit on either transport.
        http.max_body_bytes = opts.max_request_bytes;
        if (const std::string path = cli.get("--auth-token-file"); !path.empty()) {
            std::string error;
            if (!read_auth_token_file(path, http.auth_token, &error)) {
                usage("--auth-token-file: " + error);
            }
        }
        http.quota_rps = cli.get_double("--quota-rps", 0.0, 0.0);
        if (cli.has("--quota-rps") && http.quota_rps == 0.0) usage("--quota-rps must be > 0");
        http.quota_burst = cli.get_double("--quota-burst", 0.0, 0.0);
        http.metrics_fn = [&service_ref = *service] {
            return prometheus_metrics(service_ref.stats());
        };
        http.access_log = opts.access_log;
    }

    if (line_listener != nullptr) {
        std::cerr << "serve_tool: listening on " << line_listener->endpoint() << "\n";
    }
    if (http_listener != nullptr) {
        std::cerr << "serve_tool: http listening on " << http_listener->endpoint() << "\n";
    }
    if (line_listener != nullptr && http_listener != nullptr) {
        // SweepService holds a single on_shutdown hook; with two listeners
        // the tool composes one closing both (each serve loop installing
        // its own would silently drop the other's).
        service->set_on_shutdown([&line = *line_listener, &web = *http_listener] {
            line.close();
            web.close();
        });
        http.install_shutdown_hook = false;
        std::thread http_thread(
            [&] { serve_http_listener(*http_listener, *service, http); });
        serve_listener(*line_listener, *service, opts.max_request_bytes,
                       /*install_shutdown_hook=*/false);
        http_thread.join();
    } else if (http_listener != nullptr) {
        serve_http_listener(*http_listener, *service, http);
    } else {
        serve_listener(*line_listener, *service, opts.max_request_bytes);
    }
    write_trace_out(cli, *service);
    return 0;
}

// ----------------------------------------------------------- client mode ----

int run_client(const CommandLine& cli) {
    const std::string request_path = cli.get("--client");
    const std::string output_path = cli.get("--output");
    const bool quiet = cli.has("--quiet");

    // Collect the request lines first so we know how many done events to
    // expect before anything is sent.
    std::vector<std::string> requests;
    {
        std::ifstream file;
        std::istream* in = &std::cin;
        if (request_path != "-") {
            file.open(request_path);
            if (!file) {
                std::cerr << "error: cannot open " << request_path << "\n";
                return 2;
            }
            in = &file;
        }
        std::string line;
        while (std::getline(*in, line)) {
            if (!line.empty()) requests.push_back(line);
        }
    }
    if (requests.empty()) usage("no request lines in " + request_path);

    const int fd = connect_destination(cli);
    // Send from a separate thread while the main thread drains responses:
    // writing everything first can deadlock once the server's bounded
    // request queue and both socket buffers fill (the server stops reading
    // while it streams events nobody is consuming).
    std::atomic<bool> send_failed{false};
    std::thread sender([&] {
        for (const std::string& request : requests) {
            if (!write_all(fd, request) || !write_all(fd, "\n")) {
                send_failed.store(true);
                return;
            }
        }
    });

    LineReader reader(fd);
    std::string line;
    size_t done = 0;
    bool all_ok = true;
    bool saw_error_event = false;
    bool wrote_output = false;
    // result_chunk reassembly, keyed by request id: multiplexed chunked
    // exports interleave at line granularity and must not corrupt each
    // other's sequence tracking.
    struct ChunkState {
        std::string data;
        size_t next_seq = 0;
    };
    std::map<std::string, ChunkState> chunk_streams;
    auto write_output = [&](const std::string& payload) {
        std::ofstream out(output_path, std::ios::binary);
        out << payload;
        if (!out) {
            std::cerr << "error: cannot write " << output_path << "\n";
            return false;
        }
        wrote_output = true;
        return true;
    };
    bool aborted = false;  // client-side protocol/file error, not transport
    while (done < requests.size() && reader.next(line)) {
        if (!quiet) std::cout << line << "\n";
        JsonValue event;
        if (!json_parse(line, event)) continue;  // not ours to validate
        const JsonValue* kind = event.find("event");
        if (kind == nullptr || !kind->is_string()) continue;
        // Any server-side error event means this run did not fully succeed,
        // even if a later `done` somehow claimed otherwise: scripts keying
        // off the exit status must see the failure.
        if (kind->string == "error") saw_error_event = true;
        if (kind->string == "result" && !output_path.empty()) {
            if (const JsonValue* data = event.find("data"); data != nullptr && data->is_string()) {
                if (!write_output(data->string)) {
                    aborted = true;
                    break;
                }
            }
        }
        if (kind->string == "result_chunk" && !output_path.empty()) {
            const JsonValue* id = event.find("id");
            const JsonValue* seq = event.find("seq");
            const JsonValue* last = event.find("last");
            const JsonValue* data = event.find("data");
            ChunkState& stream =
                chunk_streams[id != nullptr && id->is_string() ? id->string : ""];
            if (seq == nullptr || !seq->is_number() || last == nullptr || !last->is_bool() ||
                data == nullptr || !data->is_string() ||
                static_cast<size_t>(seq->number) != stream.next_seq) {
                std::cerr << "error: bad result_chunk sequence (expected seq "
                          << stream.next_seq << ")\n";
                aborted = true;
                break;
            }
            ++stream.next_seq;
            stream.data += data->string;
            if (last->boolean) {
                if (!write_output(stream.data)) {
                    aborted = true;
                    break;
                }
                chunk_streams.erase(id != nullptr && id->is_string() ? id->string : "");
            }
        }
        if (kind->string == "done") {
            ++done;
            if (const JsonValue* ok = event.find("ok"); ok != nullptr && ok->is_bool()) {
                all_ok = all_ok && ok->boolean;
            }
        }
    }
    sender.join();
    ::close(fd);
    if (send_failed.load()) {
        std::cerr << "error: send failed\n";
        return 3;
    }
    // A break above already printed its own diagnosis; the stream was
    // alive, so this is a request failure (1), not a transport one (3).
    if (aborted) return 1;
    if (done < requests.size()) {
        std::cerr << "error: server closed the stream after " << done << " of "
                  << requests.size() << " responses\n";
        return 3;
    }
    if (!output_path.empty() && !wrote_output) {
        std::cerr << "error: no result event received (add \"export\": true?)\n";
        return 1;
    }
    return all_ok && !saw_error_event ? 0 : 1;
}

// ----------------------------------------------------------- scrape mode ----

int run_scrape(const CommandLine& cli) {
    if (cli.has("--http")) {
        if (cli.has("--socket") || cli.has("--tcp")) {
            usage("give exactly one of --socket, --tcp or --http");
        }
        std::string host;
        uint16_t port = 0;
        std::string error;
        if (!parse_host_port(cli.get("--http"), host, port, &error,
                             /*allow_port_zero=*/false)) {
            usage("--http: " + error);
        }
        std::string token;
        if (const std::string path = cli.get("--auth-token-file"); !path.empty()) {
            if (!read_auth_token_file(path, token, &error)) {
                usage("--auth-token-file: " + error);
            }
        }
        HttpClientResponse response;
        if (!http_request(host.empty() ? "127.0.0.1" : host, port, "GET", "/metrics", "",
                          token, response, &error)) {
            std::cerr << "error: " << error << "\n";
            return 3;
        }
        if (response.status != 200) {
            std::cerr << "error: GET /metrics answered " << response.status << " "
                      << response.reason << "\n";
            return 3;
        }
        // The same dialect gate as the line-protocol scrape: garbage from a
        // misdirected endpoint must never reach a collector.
        std::string exposition_error;
        if (!validate_exposition(response.body, &exposition_error)) {
            std::cerr << "error: malformed exposition text: " << exposition_error << "\n";
            return 3;
        }
        std::cout << response.body;
        return 0;
    }
    const int fd = connect_destination(cli);
    const std::string request = "{\"id\": \"scrape\", \"type\": \"metrics\"}\n";
    if (!write_all(fd, request)) {
        std::cerr << "error: send failed\n";
        ::close(fd);
        return 3;
    }
    LineReader reader(fd);
    std::string line;
    std::string metrics;
    bool got_metrics = false;
    bool done = false;
    // A scraper talks to exactly one kind of endpoint; anything that is not
    // a clean metrics/done exchange with valid exposition text is a
    // transport-contract violation (exit 3), so a misdirected scrape (a
    // rogue process) can never feed garbage to a collector.
    while (!done && reader.next(line)) {
        JsonValue event;
        if (!json_parse(line, event) || !event.is_object()) {
            std::cerr << "error: malformed response line during scrape\n";
            ::close(fd);
            return 3;
        }
        const JsonValue* kind = event.find("event");
        if (kind == nullptr || !kind->is_string()) {
            std::cerr << "error: response carries no event field "
                         "(not a serve_tool metrics endpoint?)\n";
            ::close(fd);
            return 3;
        }
        if (kind->string == "metrics") {
            const JsonValue* data = event.find("data");
            if (data == nullptr || !data->is_string()) {
                std::cerr << "error: metrics event carries no data text\n";
                ::close(fd);
                return 3;
            }
            metrics = data->string;
            got_metrics = true;
        } else if (kind->string == "done") {
            done = true;
        } else {
            std::cerr << "error: unexpected \"" << kind->string
                      << "\" event during scrape\n";
            ::close(fd);
            return 3;
        }
    }
    ::close(fd);
    if (!got_metrics) {
        std::cerr << "error: no metrics event received\n";
        return 3;
    }
    std::string exposition_error;
    if (!validate_exposition(metrics, &exposition_error)) {
        std::cerr << "error: malformed exposition text: " << exposition_error << "\n";
        return 3;
    }
    std::cout << metrics;  // raw Prometheus exposition text
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    // A client that disconnects mid-stream must not kill the server.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        const CommandLine cli(
            argc, argv,
            {"--listen", "--listen-tcp", "--listen-http", "--auth-token-file", "--quota-rps",
             "--quota-burst", "--threads", "--request-workers", "--queue-capacity",
             "--max-request-bytes", "--access-log", "--trace-out", "--workers", "--shards",
             "--shard-timeout-ms", "--shard-retries", "--client", "--socket", "--tcp",
             "--output", "--http"},
            {"--reject-overload", "--quiet", "--scrape"});
        if (cli.help()) usage();
        // One mode per invocation: ambiguous combinations are rejected, not
        // silently resolved by precedence.
        if (cli.has("--listen") && cli.has("--listen-tcp")) {
            usage("give --listen or --listen-tcp, not both");
        }
        const bool server = cli.has("--listen") || cli.has("--listen-tcp") ||
                            cli.has("--listen-http");
        const bool client = cli.has("--client");
        const bool scrape = cli.has("--scrape");
        if (cli.has("--http") && !scrape) {
            usage("--http is a --scrape option (servers use --listen-http)");
        }
        for (const char* flag : {"--quota-rps", "--quota-burst"}) {
            if (cli.has(flag) && !cli.has("--listen-http")) {
                usage(std::string(flag) + " requires --listen-http");
            }
        }
        if (cli.has("--quota-burst") && !cli.has("--quota-rps")) {
            usage("--quota-burst requires --quota-rps");
        }
        if (cli.has("--auth-token-file") && !cli.has("--listen-http") && !cli.has("--http")) {
            usage("--auth-token-file requires --listen-http (server) or "
                  "--scrape --http (client)");
        }
        if ((server && (client || scrape)) || (client && scrape)) {
            usage("server (--listen/--listen-tcp), client (--client) and --scrape "
                  "are mutually exclusive modes");
        }
        // Only a server reads these, so a client or scraper would ignore
        // them, malformed or not.
        if (client || scrape) {
            for (const char* flag :
                 {"--threads", "--request-workers", "--queue-capacity", "--max-request-bytes",
                  "--reject-overload", "--access-log", "--trace-out", "--workers", "--shards",
                  "--shard-timeout-ms", "--shard-retries"}) {
                if (cli.has(flag)) usage(std::string(flag) + " is a server option");
            }
        }
        if (scrape) return run_scrape(cli);
        if (client) return run_client(cli);
        if (server) return run_socket_server(cli);
        return run_stdio_server(cli);
    } catch (const UsageError& e) {
        usage(e.what());
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 3;
    }
}
