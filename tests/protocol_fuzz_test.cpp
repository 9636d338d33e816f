// Randomized protocol fuzzing with fixed seeds: whatever bytes arrive on
// the wire, parse_request must never crash, never hang, and always yield
// either a valid SweepRequest or a structured RequestError with a
// machine-readable code. Valid requests generated from a seeded grammar
// must round-trip: the line parses, and the parsed fields match what the
// generator intended (cross-checked through util/json_parse).
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "util/json_parse.h"
#include "util/rng.h"

namespace sdlc::serve {
namespace {

/// Every rejection must carry one of the documented codes; anything else
/// means a new failure mode leaked out without being classified.
void expect_structured(const std::string& line, const SweepRequest& req,
                       const RequestError& err, bool parsed) {
    (void)req;
    if (parsed) return;
    EXPECT_TRUE(err.code == "too_large" || err.code == "parse_error" ||
                err.code == "invalid_request" || err.code == "invalid_shard")
        << "unclassified rejection code \"" << err.code << "\" for: " << line.substr(0, 120);
    EXPECT_FALSE(err.message.empty()) << line.substr(0, 120);
}

void fuzz_one(const std::string& line, size_t max_bytes = kDefaultMaxRequestBytes) {
    SweepRequest req;
    RequestError err;
    const bool parsed = parse_request(line, max_bytes, req, err);
    expect_structured(line, req, err, parsed);
    if (parsed) {
        // A parsed request must be internally coherent enough to describe
        // and count without throwing (the service calls both before
        // evaluating anything).
        EXPECT_FALSE(req.id.empty());
        if (req.type == RequestType::kCancel) {
            EXPECT_FALSE(req.target.empty());
        }
    }
}

TEST(ProtocolFuzz, RandomBytesNeverCrash) {
    Xoshiro256 rng(0xf022ed01u);
    for (int round = 0; round < 2000; ++round) {
        const size_t length = rng.below(256);
        std::string line;
        line.reserve(length);
        for (size_t i = 0; i < length; ++i) {
            line.push_back(static_cast<char>(rng.below(256)));
        }
        fuzz_one(line);
    }
}

TEST(ProtocolFuzz, RandomJsonLikeTokensNeverCrash) {
    // Structured garbage exercises the parser deeper than raw bytes: the
    // tokens are JSON-plausible so more inputs survive into the schema
    // checks.
    static const char* kTokens[] = {
        "{",     "}",        "[",       "]",          ":",        ",",       "\"id\"",
        "\"r1\"", "\"type\"", "\"sweep\"", "\"spec\"", "\"width\"", "4",      "-1",
        "1e999", "0.5",      "null",    "true",       "false",    "\"\\u0000\"",
        "\"\\ud800\"", " ",  "\\",      "\"widths\"", "[4,5]",    "\"deadline_ms\"",
        "\"chunk_bytes\"",   "\"eval\"", "\"seed\"",  "\"cancel\"", "\"target\"",
        "\"shard\"", "\"lo\"", "\"hi\"", "\"point_bits\"",
    };
    Xoshiro256 rng(0xf022ed02u);
    for (int round = 0; round < 2000; ++round) {
        const size_t tokens = 1 + rng.below(40);
        std::string line;
        for (size_t i = 0; i < tokens; ++i) {
            line += kTokens[rng.below(std::size(kTokens))];
        }
        fuzz_one(line);
    }
}

TEST(ProtocolFuzz, MutatedValidRequestsNeverCrash) {
    const std::string seedline =
        "{\"id\": \"r1\", \"type\": \"sweep\","
        " \"spec\": {\"widths\": [4, 5], \"min_depth\": 2, \"max_depth\": 3,"
        " \"variants\": [\"sdlc\"], \"schemes\": [\"wallace\"]},"
        " \"eval\": {\"seed\": 42, \"samples\": 1000, \"hardware\": false},"
        " \"objectives\": [\"error\", \"area\"], \"deadline_ms\": 250,"
        " \"chunk_bytes\": 4096, \"export\": true,"
        " \"shard\": {\"lo\": 1, \"hi\": 3}, \"point_bits\": true}";
    Xoshiro256 rng(0xf022ed03u);
    for (int round = 0; round < 3000; ++round) {
        std::string line = seedline;
        const size_t mutations = 1 + rng.below(8);
        for (size_t m = 0; m < mutations; ++m) {
            switch (rng.below(4)) {
                case 0:  // flip one byte
                    line[rng.below(line.size())] = static_cast<char>(rng.below(256));
                    break;
                case 1:  // delete one byte
                    line.erase(rng.below(line.size()), 1);
                    break;
                case 2:  // duplicate-insert one byte
                    line.insert(rng.below(line.size()), 1, line[rng.below(line.size())]);
                    break;
                case 3:  // truncate
                    line.resize(rng.below(line.size()) + 1);
                    break;
            }
            if (line.empty()) line = "{";
        }
        fuzz_one(line);
    }
}

TEST(ProtocolFuzz, ShardRangesParseStrictly) {
    // A valid range is accepted with both bounds; every contradictory or
    // malformed one is rejected with the structured "invalid_shard" code
    // (ranges) or "invalid_request" (shape).
    const std::string head = "{\"id\": \"s\", \"spec\": {\"width\": 4}, \"shard\": ";
    SweepRequest req;
    RequestError err;
    ASSERT_TRUE(parse_request(head + "{\"lo\": 1, \"hi\": 3}}", kDefaultMaxRequestBytes, req,
                              err))
        << err.message;
    EXPECT_EQ(req.shard_lo, 1u);
    EXPECT_EQ(req.shard_hi, 3u);

    const struct {
        const char* shard;
        const char* code;
    } bad[] = {
        {"{\"lo\": 3, \"hi\": 3}}", "invalid_shard"},    // empty range
        {"{\"lo\": 4, \"hi\": 2}}", "invalid_shard"},    // inverted
        {"{\"lo\": 0, \"hi\": 9999}}", "invalid_shard"}, // past the space
        {"{\"lo\": 1}}", "invalid_request"},             // missing hi
        {"{\"hi\": 2}}", "invalid_request"},             // missing lo
        {"{\"lo\": -1, \"hi\": 2}}", "invalid_request"}, // negative
        {"{\"lo\": 0.5, \"hi\": 2}}", "invalid_request"},
        {"[1, 2]}", "invalid_request"},                  // not an object
        {"{\"lo\": 0, \"hi\": 1, \"x\": 1}}", "invalid_request"},  // unknown key
    };
    for (const auto& c : bad) {
        SweepRequest r;
        RequestError e;
        EXPECT_FALSE(parse_request(head + c.shard, kDefaultMaxRequestBytes, r, e)) << c.shard;
        EXPECT_EQ(e.code, c.code) << c.shard << " — " << e.message;
    }
}

TEST(ProtocolFuzz, SweepRequestJsonRoundTrips) {
    // The coordinator's shard sub-requests go through the same strict
    // parser as any client line; fuzz the serializer against it across
    // the knob space.
    Xoshiro256 rng(0xf022ed05u);
    for (int round = 0; round < 200; ++round) {
        SweepRequest req;
        req.id = "s" + std::to_string(round);
        req.spec.widths = {static_cast<int>(4 + rng.below(4))};
        req.eval.seed = rng.next();
        req.eval.samples = 1 + rng.below(1 << 20);
        req.eval.use_hw_cache = rng.below(2) == 0;
        req.eval.evaluate_hardware = rng.below(2) == 0;
        req.stream_points = true;
        req.export_json = false;
        req.point_bits = rng.below(2) == 0;
        req.deadline_ms = rng.below(2) == 0 ? 0 : 1 + rng.below(100000);
        const size_t count = req.spec.count();
        req.shard_lo = rng.below(count);
        req.shard_hi = req.shard_lo + 1 + rng.below(count - req.shard_lo);

        SweepRequest back;
        RequestError err;
        ASSERT_TRUE(
            parse_request(sweep_request_json(req), kDefaultMaxRequestBytes, back, err))
            << err.message << " — " << sweep_request_json(req);
        EXPECT_EQ(back.id, req.id);
        EXPECT_EQ(back.spec.widths, req.spec.widths);
        EXPECT_EQ(back.eval.seed, req.eval.seed);
        EXPECT_EQ(back.eval.samples, req.eval.samples);
        EXPECT_EQ(back.eval.use_hw_cache, req.eval.use_hw_cache);
        EXPECT_EQ(back.eval.evaluate_hardware, req.eval.evaluate_hardware);
        EXPECT_EQ(back.shard_lo, req.shard_lo);
        EXPECT_EQ(back.shard_hi, req.shard_hi);
        EXPECT_EQ(back.point_bits, req.point_bits);
        EXPECT_EQ(back.deadline_ms, req.deadline_ms);
    }
}

TEST(ProtocolFuzz, DeepNestingIsRejectedNotOverflowed) {
    // Input depth must never become stack depth: a nesting bomb gets a
    // parse_error, not a crash.
    for (const size_t depth : {64u, 100u, 1000u, 100000u}) {
        std::string bomb = "{\"id\": \"r\", \"spec\": ";
        for (size_t i = 0; i < depth; ++i) bomb += "[";
        for (size_t i = 0; i < depth; ++i) bomb += "]";
        bomb += "}";
        SweepRequest req;
        RequestError err;
        EXPECT_FALSE(parse_request(bomb, kDefaultMaxRequestBytes, req, err)) << depth;
        EXPECT_TRUE(err.code == "parse_error" || err.code == "too_large" ||
                    err.code == "invalid_request")
            << err.code;
    }
}

TEST(ProtocolFuzz, TinySizeCapsStillClassify) {
    Xoshiro256 rng(0xf022ed04u);
    for (int round = 0; round < 500; ++round) {
        const size_t length = rng.below(64);
        std::string line;
        for (size_t i = 0; i < length; ++i) {
            line.push_back(static_cast<char>(' ' + rng.below(95)));
        }
        fuzz_one(line, /*max_bytes=*/rng.below(32));
    }
}

// ---------------------------------------------------- valid round-trips ----

/// What the generator meant; compared against the parsed SweepRequest.
struct Intent {
    std::string id;
    std::vector<int> widths;
    uint64_t seed = 0;
    bool seed_as_string = false;  ///< full 64-bit range; numeric form caps at 2^53
    bool hardware = true;
    uint64_t deadline_ms = 0;
    size_t chunk_bytes = 0;
    bool export_json = false;
};

std::string render(const Intent& intent) {
    std::string line = "{\"id\": \"" + intent.id + "\", \"spec\": {\"widths\": [";
    for (size_t i = 0; i < intent.widths.size(); ++i) {
        line += (i > 0 ? ", " : "") + std::to_string(intent.widths[i]);
    }
    line += "]}, \"eval\": {\"seed\": ";
    if (intent.seed_as_string) {
        line += "\"" + std::to_string(intent.seed) + "\"";
    } else {
        line += std::to_string(intent.seed);
    }
    line += ", \"hardware\": ";
    line += intent.hardware ? "true" : "false";
    line += "}";
    if (intent.deadline_ms > 0) {
        line += ", \"deadline_ms\": " + std::to_string(intent.deadline_ms);
    }
    if (intent.chunk_bytes > 0) {
        line += ", \"chunk_bytes\": " + std::to_string(intent.chunk_bytes);
    }
    if (intent.export_json) line += ", \"export\": true";
    line += "}";
    return line;
}

TEST(ProtocolFuzz, GeneratedValidRequestsRoundTrip) {
    Xoshiro256 rng(0xf022ed05u);
    for (int round = 0; round < 1000; ++round) {
        Intent intent;
        intent.id = "req-" + std::to_string(round);
        const size_t width_count = 1 + rng.below(3);
        for (size_t i = 0; i < width_count; ++i) {
            intent.widths.push_back(2 + static_cast<int>(rng.below(15)));
        }
        // JSON numbers are exact only to 2^53; bigger seeds ride as strings.
        intent.seed_as_string = rng.below(2) == 0;
        intent.seed = intent.seed_as_string ? rng.next()
                                            : (rng.next() & ((uint64_t{1} << 53) - 1));
        intent.hardware = rng.below(2) == 0;
        if (rng.below(2) == 0) intent.deadline_ms = 1 + rng.below(10000);
        if (rng.below(2) == 0) intent.chunk_bytes = 16 + rng.below(1 << 16);
        intent.export_json = rng.below(2) == 0;

        const std::string line = render(intent);
        SweepRequest req;
        RequestError err;
        ASSERT_TRUE(parse_request(line, kDefaultMaxRequestBytes, req, err))
            << line << " — " << err.message;
        EXPECT_EQ(req.id, intent.id);
        EXPECT_EQ(req.spec.widths, intent.widths);
        EXPECT_EQ(req.eval.seed, intent.seed);
        EXPECT_EQ(req.eval.evaluate_hardware, intent.hardware);
        EXPECT_EQ(req.deadline_ms, intent.deadline_ms);
        EXPECT_EQ(req.chunk_bytes, intent.chunk_bytes);
        EXPECT_EQ(req.export_json, intent.export_json);

        // The request line itself must also survive the strict reader the
        // service uses (no duplicate keys, bounded nesting, clean JSON).
        JsonValue doc;
        std::string parse_error;
        EXPECT_TRUE(json_parse(line, doc, &parse_error)) << parse_error;
    }
}

}  // namespace
}  // namespace sdlc::serve
