#include "dse/shard_merge.h"

#include <stdexcept>
#include <utility>

namespace sdlc {

ShardMerger::ShardMerger(size_t lo, size_t hi,
                         std::function<void(size_t, const DesignPoint&)> emit)
    : lo_(lo), hi_(hi), next_emit_(lo), emit_(std::move(emit)) {
    if (lo > hi) throw std::invalid_argument("ShardMerger: lo > hi");
    present_.assign(hi - lo, 0);
    points_.resize(hi - lo);
}

void ShardMerger::add(size_t index, const DesignPoint& point) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (index < lo_ || index >= hi_) {
        throw std::out_of_range("ShardMerger: index " + std::to_string(index) +
                                " outside [" + std::to_string(lo_) + ", " +
                                std::to_string(hi_) + ")");
    }
    const size_t slot = index - lo_;
    if (present_[slot] != 0) return;  // duplicate delivery (retried shard)
    present_[slot] = 1;
    points_[slot] = point;
    ++merged_;
    if (!emit_ || emit_failed_) return;
    try {
        while (next_emit_ < hi_ && present_[next_emit_ - lo_] != 0) {
            emit_(next_emit_, points_[next_emit_ - lo_]);
            ++next_emit_;
        }
    } catch (...) {
        emit_failed_ = true;
        throw;
    }
}

size_t ShardMerger::merged() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return merged_;
}

size_t ShardMerger::emitted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return emit_ ? next_emit_ - lo_ : 0;
}

bool ShardMerger::complete() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return merged_ == hi_ - lo_;
}

std::vector<DesignPoint> ShardMerger::take() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (merged_ != hi_ - lo_) {
        throw std::logic_error("ShardMerger::take before the merge is complete");
    }
    return std::move(points_);
}

}  // namespace sdlc
