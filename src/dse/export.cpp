#include "dse/export.h"

#include <fstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/json.h"

namespace sdlc {

namespace {

// CSV shares JSON's fixed "%.12g" formatting so both exports are
// byte-stable for bit-identical inputs.
std::string num(double v) { return json_number(v); }

void check_ranks(const std::vector<DesignPoint>& points, const std::vector<int>& ranks) {
    if (!ranks.empty() && ranks.size() != points.size()) {
        throw std::invalid_argument("dse export: ranks/points size mismatch");
    }
}

}  // namespace

std::vector<std::string> dse_csv_header() {
    return {"width",    "depth",   "variant",  "scheme",     "rank",
            "nmed",     "mred",    "med",      "error_rate", "max_red",
            "cells",    "area_um2", "delay_ps", "power_uw",  "leakage_nw",
            "energy_fj"};
}

std::vector<std::string> dse_csv_row(const DesignPoint& p, int rank) {
    return {std::to_string(p.config.width),
            std::to_string(p.config.depth),
            multiplier_variant_name(p.config.variant),
            accumulation_scheme_name(p.config.scheme),
            rank < 0 ? std::string() : std::to_string(rank),
            num(p.error.nmed),
            num(p.error.mred),
            num(p.error.med),
            num(p.error.error_rate),
            num(p.error.max_red),
            std::to_string(p.hw.cells),
            num(p.hw.area_um2),
            num(p.hw.delay_ps),
            num(p.hw.dynamic_power_uw),
            num(p.hw.leakage_nw),
            num(p.hw.energy_fj)};
}

void write_dse_csv(const std::string& path, const std::vector<DesignPoint>& points,
                   const std::vector<int>& ranks) {
    check_ranks(points, ranks);
    CsvWriter csv(path);
    csv.write_row(dse_csv_header());
    for (size_t i = 0; i < points.size(); ++i) {
        csv.write_row(dse_csv_row(points[i], ranks.empty() ? -1 : ranks[i]));
    }
    csv.close();
}

std::string dse_point_json(const DesignPoint& p, int rank) {
    std::string out = "{\"config\": {\"width\": " + std::to_string(p.config.width);
    out += ", \"depth\": " + std::to_string(p.config.depth);
    out += ", \"variant\": \"" + std::string(multiplier_variant_name(p.config.variant));
    out += "\", \"scheme\": \"" + std::string(accumulation_scheme_name(p.config.scheme));
    out += "\"}, \"rank\": ";
    out += rank < 0 ? std::string("null") : std::to_string(rank);
    out += ", \"error\": {\"nmed\": " + num(p.error.nmed);
    out += ", \"mred\": " + num(p.error.mred);
    out += ", \"med\": " + num(p.error.med);
    out += ", \"error_rate\": " + num(p.error.error_rate);
    out += ", \"max_red\": " + num(p.error.max_red);
    out += ", \"samples\": " + std::to_string(p.error.samples);
    out += "}, \"hw\": {\"cells\": " + std::to_string(p.hw.cells);
    out += ", \"area_um2\": " + num(p.hw.area_um2);
    out += ", \"delay_ps\": " + num(p.hw.delay_ps);
    out += ", \"power_uw\": " + num(p.hw.dynamic_power_uw);
    out += ", \"leakage_nw\": " + num(p.hw.leakage_nw);
    out += ", \"energy_fj\": " + num(p.hw.energy_fj);
    out += "}}";
    return out;
}

std::string dse_to_json(const std::vector<DesignPoint>& points, const std::vector<int>& ranks) {
    check_ranks(points, ranks);
    std::string out = "[\n";
    for (size_t i = 0; i < points.size(); ++i) {
        out += "  " + dse_point_json(points[i], ranks.empty() ? -1 : ranks[i]);
        out += i + 1 < points.size() ? ",\n" : "\n";
    }
    out += "]\n";
    return out;
}

void dse_json_stream(const std::vector<DesignPoint>& points, const std::vector<int>& ranks,
                     const SweepStats& stats, const ObjectiveSet& objectives,
                     const std::function<void(std::string_view)>& emit) {
    check_ranks(points, ranks);
    std::string head = "{\"summary\": {\"points\": " + std::to_string(stats.points);
    head += ", \"objectives\": " + objective_set_json(objectives);
    head += ", \"hw_cache\": {\"enabled\": ";
    head += stats.hw_cache_enabled ? "true" : "false";
    head += "}, \"error_engines\": {\"sliced\": " + std::to_string(stats.engines.sliced);
    head += ", \"scalar\": " + std::to_string(stats.engines.scalar);
    head += ", \"sampled\": " + std::to_string(stats.engines.sampled);
    head += ", \"cutoff\": \"" + stats.cutoff_desc + "\"";
    head += "}},\n\"points\": [\n";
    emit(head);
    for (size_t i = 0; i < points.size(); ++i) {
        std::string row = "  " + dse_point_json(points[i], ranks.empty() ? -1 : ranks[i]);
        row += i + 1 < points.size() ? ",\n" : "\n";
        emit(row);
    }
    emit("]\n}\n");
}

std::string dse_to_json(const std::vector<DesignPoint>& points, const std::vector<int>& ranks,
                        const SweepStats& stats, const ObjectiveSet& objectives) {
    std::string out;
    dse_json_stream(points, ranks, stats, objectives,
                    [&out](std::string_view piece) { out += piece; });
    return out;
}

void write_dse_json(const std::string& path, const std::vector<DesignPoint>& points,
                    const std::vector<int>& ranks) {
    std::ofstream f(path, std::ios::binary);
    if (!f) throw std::runtime_error("dse export: cannot open " + path);
    f << dse_to_json(points, ranks);
    if (!f) throw std::runtime_error("dse export: write failed for " + path);
}

void write_dse_json(const std::string& path, const std::vector<DesignPoint>& points,
                    const std::vector<int>& ranks, const SweepStats& stats,
                    const ObjectiveSet& objectives) {
    std::ofstream f(path, std::ios::binary);
    if (!f) throw std::runtime_error("dse export: cannot open " + path);
    f << dse_to_json(points, ranks, stats, objectives);
    if (!f) throw std::runtime_error("dse export: write failed for " + path);
}

}  // namespace sdlc
