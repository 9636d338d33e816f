// Cluster sweep coordinator: shards a SweepSpec's enumeration across serve
// replicas and merges the per-point streams back into enumeration order.
//
// The coordinator cuts the index space into a *fixed* number of shards
// (shard_plan.h) — independent of how many workers are alive — and fans
// them out to peer replicas as ordinary NDJSON sweep requests restricted
// by {"shard": {lo, hi}} with "point_bits" set, so every point comes back
// bit-exact. A ShardMerger re-serializes completed points into the global
// enumeration order, which makes the merged stream — and therefore the
// final export — byte-identical to a single-node run at any shard count,
// worker count, or failure pattern.
//
// Degradation is part of the contract, not an error path: a worker that
// dies, stalls past the silence budget, or answers with anything other
// than a clean in-order shard stream is dropped for the rest of the sweep
// and its shard is requeued on the surviving peers. A shard that exhausts
// its remote attempts (or outlives the last worker) is executed locally
// through the very same evaluate_sweep the workers run, so the output
// bytes never depend on who computed a point.
#ifndef SDLC_CLUSTER_COORDINATOR_H
#define SDLC_CLUSTER_COORDINATOR_H

#include <mutex>
#include <string>
#include <vector>

#include "dse/evaluator.h"
#include "dse/sweep.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "util/cli.h"

namespace sdlc::cluster {

/// Fan-out knobs. `workers` entries use the endpoint grammar of
/// serve/socket.h ("unix:PATH" or "HOST:PORT") — one serve replica per
/// entry.
struct ClusterOptions {
    std::vector<std::string> workers;
    /// Fixed shard count per sweep. The cut depends only on this and the
    /// sweep's size, never on worker count or timing, so retries re-run
    /// exactly the same indices.
    size_t shards = 32;
    /// Remote re-dispatches allowed per shard after its first failure
    /// before the coordinator executes it locally. A failed shard is
    /// requeued at once.
    int shard_retries = 2;
    /// Read-silence budget per shard stream: a worker that produces no
    /// bytes for this long is treated as dead and its shard requeued.
    /// <= 0 disables the budget (failures are then EOF/error only).
    int shard_timeout_ms = 60000;
    /// Per-worker connect budget.
    int connect_timeout_ms = 2000;
};

/// The fan-out options on a tool's command line: --workers LIST, --shards,
/// --shard-timeout-ms and --shard-retries, each defaulting to the field
/// above. Without --workers the worker list is empty (local evaluation).
/// Throws UsageError on a malformed or empty worker list, a count out of
/// range, or a shard option without --workers, which would do nothing.
[[nodiscard]] ClusterOptions cluster_options_from(const CommandLine& cli);

/// Runs `spec` distributed over `opts.workers`, honoring `eval`'s cancel /
/// deadline / on_point / shard range exactly like evaluate_sweep — global
/// enumeration indices, in-order streaming, strict-prefix partial streams
/// — and returns the merged points. `counters` (when non-null) receives
/// this sweep's per-worker dispatch/completion/retry/bytes/latency deltas.
/// `stats` (when non-null) receives the same request-pure bookkeeping a
/// single-node evaluate_sweep of the range reports. Throws SweepCancelled,
/// SweepDeadlineExceeded, std::invalid_argument like evaluate_sweep.
std::vector<DesignPoint> distributed_sweep(const SweepSpec& spec, const EvalOptions& eval,
                                           const ClusterOptions& opts,
                                           SweepStats* stats = nullptr,
                                           serve::ClusterCounters* counters = nullptr);

/// A SweepService whose sweeps run distributed: the protocol, queueing,
/// cancellation, deadlines and event emission are all inherited — only the
/// evaluate() hook changes, which is what keeps a coordinator's event
/// stream byte-identical to a single replica's. Control requests (stats,
/// metrics, cancel, shutdown) behave exactly as on a plain service, with
/// the cluster counters folded into stats() and the Prometheus scrape.
class CoordinatorService final : public serve::SweepService {
public:
    /// Throws std::invalid_argument on an empty worker list, a malformed
    /// worker spec, or a zero shard count.
    CoordinatorService(const serve::ServiceOptions& opts, ClusterOptions cluster);
    ~CoordinatorService() override;

    [[nodiscard]] serve::ServiceStats stats() const override;

protected:
    std::vector<DesignPoint> evaluate(const serve::SweepRequest& request, EvalOptions& eval,
                                      SweepStats& stats) override;

private:
    const ClusterOptions cluster_;
    mutable std::mutex cluster_mutex_;
    serve::ClusterCounters totals_;
};

}  // namespace sdlc::cluster

#endif  // SDLC_CLUSTER_COORDINATOR_H
