// Cluster sweep coordinator: shards a SweepSpec's enumeration across serve
// replicas and merges the per-point streams back into enumeration order.
//
// The coordinator cuts the index space into a *fixed* number of shards
// (shard_plan.h) — independent of how many workers are alive — and fans
// them out to peer replicas as ordinary NDJSON sweep requests restricted
// by {"shard": {lo, hi}} with "point_bits" set, so every point comes back
// bit-exact. The points stream through the ShardMerger evaluate_sweep
// collects its own points with, and the range check and request-pure
// stats are evaluate_sweep's too, so the merged stream — and therefore the
// final export — is byte-identical to a single-node run at any shard
// count, worker count, or failure pattern.
//
// Degradation is part of the contract, not an error path: a worker that
// dies, stalls past the silence budget, or answers with anything other
// than a clean in-order shard stream is dropped for the rest of the sweep
// and its shard is requeued on the surviving peers. A shard that exhausts
// its remote attempts (or outlives the last worker) is executed locally
// through the very same evaluate_sweep the workers run, so the output
// bytes never depend on who computed a point.
//
// serve::SweepService runs its sweeps through distributed_sweep when its
// ServiceOptions name workers (serve_tool --workers), and dse_tool
// --workers calls it directly.
#ifndef SDLC_CLUSTER_COORDINATOR_H
#define SDLC_CLUSTER_COORDINATOR_H

#include <string>
#include <vector>

#include "dse/evaluator.h"
#include "dse/sweep.h"
#include "serve/protocol.h"
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

/// Runs `spec` distributed over `opts.workers` and returns the merged
/// points. Honors `eval`'s cancel, deadline, on_point and shard range
/// exactly like evaluate_sweep: global enumeration indices, in-order
/// streaming, strict-prefix partial streams, and an exception thrown by
/// on_point aborts the sweep and propagates out of this call. The
/// sub-requests carry `eval`'s serializable knobs (sweep_request_json
/// decides which). `counters` (when non-null) receives this sweep's
/// per-worker dispatch/completion/retry/bytes/latency deltas, also when
/// the sweep fails once dispatch has begun. `stats` (when non-null)
/// receives the same request-pure bookkeeping a single-node evaluate_sweep
/// of the range reports (pure_sweep_stats).
/// Throws std::invalid_argument on an empty worker list, a malformed worker
/// spec, a zero shard count or a bad shard range, and SweepCancelled or
/// SweepDeadlineExceeded like evaluate_sweep.
std::vector<DesignPoint> distributed_sweep(const SweepSpec& spec, const EvalOptions& eval,
                                           const ClusterOptions& opts,
                                           SweepStats* stats = nullptr,
                                           serve::ClusterCounters* counters = nullptr);

}  // namespace sdlc::cluster

#endif  // SDLC_CLUSTER_COORDINATOR_H
