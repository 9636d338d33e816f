// sdlc — command-line front end to the library.
//
//   sdlc gen   --width N --depth D [--scheme S] [--variant V] [-o file.v]
//              [--tb file.sv] [--dot file.dot] [--vcd file.vcd]
//   sdlc eval  --width N --depth D [--variant V] [--exhaustive | --samples K]
//   sdlc synth --width N --depth D [--variant V] [--scheme S]
//   sdlc blur  [--input in.pgm] --depth D [-o out.pgm]
//
// Variants: accurate | sdlc | compensated.  Schemes: ripple | wallace |
// dadda | fastcpa.  All commands are deterministic.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/expected_error.h"
#include "api/approx_multiplier.h"
#include "core/functional.h"
#include "dse/evaluator.h"
#include "image/convolve.h"
#include "image/gaussian.h"
#include "image/synthetic.h"
#include "netlist/export.h"
#include "netlist/opt.h"
#include "netlist/testbench.h"
#include "netlist/vcd.h"
#include "tech/synthesis.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace sdlc;

[[noreturn]] void usage(const std::string& msg = "") {
    if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
    std::cerr <<
        "usage:\n"
        "  sdlc gen   --width N --depth D [--scheme S] [--variant V] [-o file.v]\n"
        "             [--tb file.sv] [--dot file.dot] [--vcd file.vcd]\n"
        "  sdlc eval  --width N --depth D [--variant V] [--exhaustive | --samples K]\n"
        "  sdlc synth --width N --depth D [--variant V] [--scheme S]\n"
        "  sdlc blur  [--input in.pgm] --depth D [-o out.pgm]\n"
        "variants: accurate|sdlc|compensated   schemes: ripple|wallace|dadda|fastcpa\n";
    std::exit(msg.empty() ? 0 : 2);
}

/// The output path: -o, or its long form --out.
std::string out_path(const CommandLine& cli, const std::string& dflt) {
    return cli.get("-o", cli.get("--out", dflt));
}

MultiplierConfig config_from(const CommandLine& cli) {
    MultiplierConfig cfg;
    cfg.width = cli.get_int("--width", 8);
    cfg.depth = cli.get_int("--depth", 2);
    const std::string variant = cli.get("--variant", "sdlc");
    if (!parse_multiplier_variant(variant, cfg.variant)) usage("unknown variant " + variant);
    const std::string scheme = cli.get("--scheme", "ripple");
    if (!parse_accumulation_scheme(scheme, cfg.scheme)) usage("unknown scheme " + scheme);
    return cfg;
}

int cmd_gen(const CommandLine& cli) {
    const MultiplierConfig cfg = config_from(cli);
    const ApproxMultiplier mul(cfg);
    const MultiplierNetlist hw = mul.build_netlist();
    const Netlist optimized = optimize(hw.net).netlist;
    const std::string module = "sdlc_mul";

    const std::string out = out_path(cli, "sdlc_mul.v");
    {
        std::ofstream f(out);
        if (!f) usage("cannot open " + out);
        write_verilog(f, optimized, module);
    }
    std::cout << mul.describe() << " -> " << out << " ("
              << optimized.logic_gate_count() << " gates)\n";

    if (const std::string tb = cli.get("--tb"); !tb.empty()) {
        std::ofstream f(tb);
        if (!f) usage("cannot open " + tb);
        write_verilog_testbench(f, optimized, module);
        std::cout << "testbench -> " << tb << "\n";
    }
    if (const std::string dot = cli.get("--dot"); !dot.empty()) {
        std::ofstream f(dot);
        if (!f) usage("cannot open " + dot);
        write_dot(f, optimized, module);
        std::cout << "dot graph -> " << dot << "\n";
    }
    if (const std::string vcd = cli.get("--vcd"); !vcd.empty()) {
        std::ofstream f(vcd);
        if (!f) usage("cannot open " + vcd);
        VcdWriter writer(f, optimized, module);
        Xoshiro256 rng(1);
        std::vector<bool> in(optimized.inputs().size());
        for (int t = 0; t < 64; ++t) {
            for (auto&& bit : in) bit = (rng.next() & 1u) != 0;
            writer.step(in);
        }
        std::cout << "waveform (64 random vectors) -> " << vcd << "\n";
    }
    return 0;
}

int cmd_eval(const CommandLine& cli) {
    const MultiplierConfig cfg = config_from(cli);
    // The sweep engine on one point: the sliced exhaustive engine at or
    // below the cutoff, the sweep's seeded sampling above it. It takes the
    // widths a sweep takes.
    if (cfg.width < 2 || cfg.width > 32) usage("eval needs --width in [2, 32]");
    const ApproxMultiplier mul(cfg);  // rejects a depth outside [1, width]
    EvalOptions opts;
    opts.evaluate_hardware = false;
    opts.samples = static_cast<uint64_t>(cli.get_int("--samples", 1 << 22, 1));
    if (cli.has("--exhaustive")) {
        if (cfg.width > kMaxExhaustiveWidth) {
            usage("--exhaustive needs --width <= " + std::to_string(kMaxExhaustiveWidth));
        }
        opts.exhaustive_max_width = kMaxExhaustiveWidth;
    }
    const ErrorMetrics m = evaluate_point(cfg, opts).error;
    const std::string mode = select_error_engine(cfg, opts) == ErrorEngine::kSampled
                                 ? "sampled " + std::to_string(opts.samples)
                                 : "exhaustive";
    std::cout << mul.describe() << "  [" << mode << "]\n";
    TextTable t({"metric", "value"});
    t.add_row({"MRED (%)", fmt_percent(m.mred, 5)});
    t.add_row({"NMED", fmt_fixed(m.nmed, 8)});
    t.add_row({"ER (%)", fmt_percent(m.error_rate, 2)});
    t.add_row({"MAX(RED) (%)", fmt_percent(m.max_red, 4)});
    t.add_row({"bias", fmt_fixed(m.bias, 3)});
    t.add_row({"RMSE", fmt_fixed(m.rmse, 3)});
    t.print(std::cout);

    if (cfg.variant == MultiplierVariant::kSdlc) {
        const AnalyticError ana = analyze_expected_error(mul.plan());
        std::cout << "analytic: NMED " << fmt_fixed(ana.nmed, 8);
        if (ana.error_rate) std::cout << ", ER " << fmt_percent(*ana.error_rate, 2) << " %";
        std::cout << "\n";
    }
    return 0;
}

int cmd_synth(const CommandLine& cli) {
    const MultiplierConfig cfg = config_from(cli);
    const ApproxMultiplier mul(cfg);
    const MultiplierNetlist hw = mul.build_netlist();
    const SynthesisReport r = synthesize(hw.net, CellLibrary::generic_90nm());
    std::cout << mul.describe() << "\n  " << summarize(r) << "\n";
    return 0;
}

int cmd_blur(const CommandLine& cli) {
    const int depth = cli.get_int("--depth", 2);
    Image input;
    if (const std::string in = cli.get("--input"); !in.empty()) {
        input = load_pgm(in);
    } else {
        input = make_scene(200, 200, 42);
    }
    const FixedKernel kernel = make_gaussian_kernel(3, 1.5);
    const ClusterPlan plan = ClusterPlan::make(8, depth);
    const Image reference = convolve(input, kernel, exact_mul8);
    const Image out = convolve(input, kernel, [&](uint8_t px, uint8_t w) {
        return static_cast<uint32_t>(sdlc_multiply(plan, px, w));
    });
    const std::string path = out_path(cli, "blur.pgm");
    save_pgm(out, path);
    std::cout << "depth " << depth << " blur -> " << path << " (PSNR vs exact blur: "
              << fmt_fixed(psnr(reference, out), 2) << " dB)\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string cmd = argc < 2 ? "--help" : argv[1];
    try {
        const CommandLine cli(argc, argv,
                              {"--width", "--depth", "--variant", "--scheme", "--samples", "-o",
                               "--out", "--tb", "--dot", "--vcd", "--input"},
                              {"--exhaustive"}, 2);
        if (cli.help() || cmd == "--help" || cmd == "-h") usage();
        if (cmd == "gen") return cmd_gen(cli);
        if (cmd == "eval") return cmd_eval(cli);
        if (cmd == "synth") return cmd_synth(cli);
        if (cmd == "blur") return cmd_blur(cli);
        usage("unknown command " + cmd);
    } catch (const UsageError& e) {
        usage(e.what());
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
