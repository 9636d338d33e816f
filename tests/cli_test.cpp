// Tests for the shared command-line parser (src/util/cli.h) and the cluster
// flags read through it: what is declared, what parses whole and in range,
// and that everything else is a UsageError.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "util/cli.h"

namespace sdlc {
namespace {

/// A CommandLine over `args` (program name prepended) declaring the
/// options and flags these tests use.
CommandLine parse(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return CommandLine(static_cast<int>(args.size()), args.data(),
                       {"--n", "--seed", "--x", "--list"}, {"--quick"});
}

TEST(CommandLine, DeclaredOptionsAndFlags) {
    const CommandLine cli = parse({"--n", "5", "--quick", "--list", "a,b"});
    EXPECT_FALSE(cli.help());
    EXPECT_TRUE(cli.has("--n"));
    EXPECT_TRUE(cli.has("--quick"));
    EXPECT_FALSE(cli.has("--seed"));
    EXPECT_EQ(cli.get("--list"), "a,b");
    EXPECT_EQ(cli.get("--x", "dflt"), "dflt");
    EXPECT_EQ(cli.get_int("--n", 0), 5);
    EXPECT_EQ(cli.get_int("--x", 7), 7) << "an absent option reads its default";
}

TEST(CommandLine, RepeatedOptionKeepsTheLastValue) {
    EXPECT_EQ(parse({"--n", "1", "--n", "2"}).get_int("--n", 0), 2);
}

TEST(CommandLine, ValuesMayLookLikeOptions) {
    // A negative number is a value, and so is anything after an option.
    EXPECT_EQ(parse({"--n", "-3"}).get_int("--n", 0), -3);
    EXPECT_EQ(parse({"--x", "--quick"}).get("--x"), "--quick");
}

TEST(CommandLine, UnknownOptionAndMissingValueAreUsageErrors) {
    EXPECT_THROW(parse({"--sample", "5"}), UsageError);
    EXPECT_THROW(parse({"5"}), UsageError);
    EXPECT_THROW(parse({"-n", "5"}), UsageError);
    EXPECT_THROW(parse({"--n"}), UsageError);
    EXPECT_THROW(parse({"--quick", "--seed"}), UsageError);
    // UsageError is an invalid_argument, so generic handlers still see it.
    EXPECT_THROW(parse({"--bogus"}), std::invalid_argument);
}

TEST(CommandLine, HelpEndsParsing) {
    EXPECT_TRUE(parse({"--help"}).help());
    EXPECT_TRUE(parse({"--quick", "-h", "--bogus"}).help());
    EXPECT_THROW(parse({"--bogus", "--help"}), UsageError);
}

TEST(CommandLine, FirstSkipsASubcommand) {
    const char* argv[] = {"sdlc", "eval", "--n", "4"};
    const CommandLine cli(4, argv, {"--n"}, {}, 2);
    EXPECT_EQ(cli.get_int("--n", 0), 4);
    EXPECT_THROW(CommandLine(4, argv, {"--n"}, {}, 1), UsageError) << "eval is not declared";
}

TEST(CommandLine, IntegersParseWholeAndInRange) {
    EXPECT_EQ(parse({"--n", "0"}).get_int("--n", 1, 0, 10), 0);
    EXPECT_EQ(parse({"--n", "10"}).get_int("--n", 1, 0, 10), 10);
    EXPECT_EQ(parse({"--n", "010"}).get_int("--n", 0), 10) << "decimal, not octal";
    EXPECT_EQ(parse({"--n", "-2147483648"}).get_int("--n", 0), -2147483647 - 1);
    for (const char* bad : {"8x", "abc", "2.5", "+5", " 5", "5 ", "", "-", "0x10", "1e3",
                            "2147483648", "99999999999", "99999999999999999999"}) {
        EXPECT_THROW((void)parse({"--n", bad}).get_int("--n", 0), UsageError) << bad;
    }
    EXPECT_THROW((void)parse({"--n", "11"}).get_int("--n", 0, 0, 10), UsageError);
    EXPECT_THROW((void)parse({"--n", "-1"}).get_int("--n", 0, 0), UsageError);
    EXPECT_NO_THROW((void)parse({"--n", "8x"}).get_int("--x", 0)) << "only read values parse";
}

TEST(CommandLine, ParseIntReadsAPartOfAValue) {
    EXPECT_EQ(parse_int("--widths", "12", 2, 32), 12);
    EXPECT_THROW((void)parse_int("--widths", "x", 2, 32), UsageError);
    EXPECT_THROW((void)parse_int("--widths", "33", 2, 32), UsageError);
    try {
        (void)parse_int("--width", "8x", 2, 32);
        FAIL() << "8x parsed";
    } catch (const UsageError& e) {
        EXPECT_NE(std::string(e.what()).find("--width"), std::string::npos) << e.what();
    }
}

TEST(CommandLine, Uint64ReadsWhatStrtoullReads) {
    const auto seed = [](const char* v) {
        return parse({"--seed", v}).get_uint64("--seed", 0);
    };
    EXPECT_EQ(seed("0x1F"), 31u);
    EXPECT_EQ(seed("0X1f"), 31u);
    EXPECT_EQ(seed("010"), 8u) << "leading-zero octal, as strtoull base 0 reads it";
    EXPECT_EQ(seed("0"), 0u);
    EXPECT_EQ(seed("1562140397"), 0x5d1c5eedu);
    EXPECT_EQ(seed("18446744073709551615"), ~uint64_t{0});
    EXPECT_EQ(seed("0xffffffffffffffff"), ~uint64_t{0});
    EXPECT_EQ(parse({}).get_uint64("--seed", 42), 42u);
    for (const char* bad : {"18446744073709551616", "0x10000000000000000", "-1", "+1", " 1",
                            "1 ", "0xzz", "0x", "09", "abc", "1.5", ""}) {
        EXPECT_THROW((void)seed(bad), UsageError) << bad;
    }
}

TEST(CommandLine, DoublesAreWholeFiniteAndBounded) {
    const auto x = [](const char* v, double lo) {
        return parse({"--x", v}).get_double("--x", 0.0, lo);
    };
    EXPECT_DOUBLE_EQ(x("0.001", 0.0), 0.001);
    EXPECT_DOUBLE_EQ(x("1e-3", 0.0), 0.001);
    EXPECT_DOUBLE_EQ(x("-2.5", -10.0), -2.5);
    EXPECT_DOUBLE_EQ(parse({"--x", "-7"}).get_double("--x", 0.0), -7.0) << "default: no bound";
    for (const char* bad : {"inf", "-inf", "nan", "1e400", "abc", "1.5x", " 1", ""}) {
        EXPECT_THROW((void)x(bad, -10.0), UsageError) << bad;
    }
    EXPECT_THROW((void)x("-0.5", 0.0), UsageError) << "below the bound";
}

TEST(CommandLine, ListsSkipEmptyItems) {
    using List = std::vector<std::string>;
    EXPECT_EQ(parse({"--list", "a,b"}).get_list("--list"), (List{"a", "b"}));
    EXPECT_EQ(parse({"--list", ",a,,b,"}).get_list("--list"), (List{"a", "b"}));
    EXPECT_EQ(parse({"--list", ","}).get_list("--list"), List{});
    EXPECT_EQ(parse({"--list", ""}).get_list("--list"), List{});
    EXPECT_EQ(parse({}).get_list("--list"), List{});
}

// ----------------------------------------------------------- cluster flags ----

cluster::ClusterOptions cluster_from(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    const CommandLine cli(static_cast<int>(args.size()), args.data(),
                          {"--workers", "--shards", "--shard-timeout-ms", "--shard-retries"});
    return cluster::cluster_options_from(cli);
}

TEST(ClusterFlags, DefaultsComeFromClusterOptions) {
    const cluster::ClusterOptions defaults;
    EXPECT_TRUE(cluster_from({}).workers.empty()) << "no --workers: local evaluation";
    const cluster::ClusterOptions c = cluster_from({"--workers", "unix:a.sock,,127.0.0.1:9"});
    EXPECT_EQ(c.workers, (std::vector<std::string>{"unix:a.sock", "127.0.0.1:9"}));
    EXPECT_EQ(c.shards, defaults.shards);
    EXPECT_EQ(c.shard_timeout_ms, defaults.shard_timeout_ms);
    EXPECT_EQ(c.shard_retries, defaults.shard_retries);

    const cluster::ClusterOptions set = cluster_from(
        {"--workers", "unix:a.sock", "--shards", "8", "--shard-timeout-ms", "0",
         "--shard-retries", "0"});
    EXPECT_EQ(set.shards, 8u);
    EXPECT_EQ(set.shard_timeout_ms, 0);
    EXPECT_EQ(set.shard_retries, 0);
}

TEST(ClusterFlags, MisuseIsAUsageError) {
    for (const auto& args : std::vector<std::vector<const char*>>{
             {"--shards", "8"},
             {"--shard-timeout-ms", "100"},
             {"--shard-retries", "1"},
             {"--workers", "no-port-here"},
             {"--workers", "unix:"},
             {"--workers", ","},
             {"--workers", ""},
             {"--workers", "unix:w.sock", "--shards", "0"},
             {"--workers", "unix:w.sock", "--shards", "abc"},
             {"--workers", "unix:w.sock", "--shard-timeout-ms", "-1"},
             {"--workers", "unix:w.sock", "--shard-retries", "2x"},
         }) {
        EXPECT_THROW((void)cluster_from(args), UsageError) << args[0] << " " << args[1];
    }
}

}  // namespace
}  // namespace sdlc
