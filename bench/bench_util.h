// Shared helpers for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper, printing
// a "paper vs measured" report to stdout (and optionally CSV next to it).
#ifndef SDLC_BENCH_BENCH_UTIL_H
#define SDLC_BENCH_BENCH_UTIL_H

#include <optional>
#include <string>
#include <vector>

#include "arith/mul_netlist.h"
#include "tech/synthesis.h"

namespace sdlc::bench {

/// The benches' shared command line: --exhaustive, --quick, --csv <path>,
/// --json <path>, --seed <n>, --check <path>. Anything else, or a
/// malformed --seed, prints the usage and exits 2.
struct BenchArgs {
    bool exhaustive = false;
    bool quick = false;
    std::optional<std::string> csv_path;
    std::optional<std::string> json_path;
    /// Regression-guard mode: a previously committed JSON record of the
    /// same bench to compare against (the bench defines the tolerance and
    /// exits nonzero on regression).
    std::optional<std::string> check_path;
    uint64_t seed = 0x5d1cbe9c;

    static BenchArgs parse(int argc, char** argv);
};

/// Prints the standard bench header (experiment id + paper reference).
void print_header(const std::string& experiment, const std::string& paper_claim);

/// Synthesizes a multiplier with the default generic-90nm flow.
[[nodiscard]] SynthesisReport synth_default(const MultiplierNetlist& m);

/// Formats a reduction (0..1) as "NN.N".
[[nodiscard]] std::string red_pct(double exact, double approx);

}  // namespace sdlc::bench

#endif  // SDLC_BENCH_BENCH_UTIL_H
