#include "bench_util.h"

#include <cstdlib>
#include <iostream>

#include "util/cli.h"
#include "util/table.h"

namespace sdlc::bench {

BenchArgs BenchArgs::parse(int argc, char** argv) {
    static const char* const kUsage =
        "options: [--exhaustive] [--quick] [--csv <path>] [--json <path>] "
        "[--check <path>] [--seed <n>]\n";
    try {
        const CommandLine cli(argc, argv, {"--csv", "--json", "--check", "--seed"},
                              {"--exhaustive", "--quick"});
        if (cli.help()) {
            std::cout << kUsage;
            std::exit(0);
        }
        BenchArgs args;
        args.exhaustive = cli.has("--exhaustive");
        args.quick = cli.has("--quick");
        if (cli.has("--csv")) args.csv_path = cli.get("--csv");
        if (cli.has("--json")) args.json_path = cli.get("--json");
        if (cli.has("--check")) args.check_path = cli.get("--check");
        args.seed = cli.get_uint64("--seed", args.seed);
        return args;
    } catch (const UsageError& e) {
        std::cerr << "error: " << e.what() << "\n\n" << kUsage;
        std::exit(2);
    }
}

void print_header(const std::string& experiment, const std::string& paper_claim) {
    std::cout << "==================================================================\n"
              << experiment << "\n"
              << "Paper: Qiqieh et al., \"Energy-Efficient Approximate Multiplier\n"
              << "Design using Bit Significance-Driven Logic Compression\", DATE'17\n"
              << "Claim: " << paper_claim << "\n"
              << "==================================================================\n";
}

SynthesisReport synth_default(const MultiplierNetlist& m) {
    return synthesize(m.net, CellLibrary::generic_90nm());
}

std::string red_pct(double exact, double approx) {
    return fmt_fixed(100.0 * SynthesisReport::reduction(exact, approx), 1);
}

}  // namespace sdlc::bench
