#include "uarch/core.h"

#include <algorithm>

namespace bds {

CoreModel::CoreModel(const NodeConfig &cfg)
    : l1i(cfg.l1i), l1d(cfg.l1d), l2(cfg.l2),
      tlb(cfg.itlb, cfg.dtlb, cfg.stlb, cfg.pageBytes),
      bp(cfg.historyBits),
      lfbEntries_(cfg.lfbEntries),
      lfb_(cfg.lfbEntries + 1),
      missWindowUops_(cfg.memLatency * cfg.issueWidth),
      outstanding_(cfg.lfbEntries + 1)
{
}

bool
CoreModel::lfbInFlight(std::uint64_t line_addr, double now)
{
    std::size_t cap = lfb_.size();
    while (lfbCount_ > 0 && lfb_[lfbHead_].ready <= now) {
        lfbHead_ = (lfbHead_ + 1) % cap;
        --lfbCount_;
    }
    for (std::size_t k = 0; k < lfbCount_; ++k) {
        const LfbEntry &e = lfb_[(lfbHead_ + k) % cap];
        if (e.line == line_addr && e.ready > now)
            return true;
    }
    return false;
}

void
CoreModel::lfbAllocate(std::uint64_t line_addr, double ready)
{
    std::size_t cap = lfb_.size();
    lfb_[(lfbHead_ + lfbCount_) % cap] = LfbEntry{line_addr, ready};
    if (lfbCount_ < lfbEntries_) {
        ++lfbCount_;
    } else {
        // Full: the push displaces the oldest entry.
        lfbHead_ = (lfbHead_ + 1) % cap;
    }
}

double
CoreModel::accountLlcMiss(bool dependent)
{
    // Overlap is judged in *issue* (uop) time, not stalled wall-clock
    // time: an OoO core keeps issuing independent misses while an
    // earlier one is outstanding. A miss occupies the window of uops
    // the fill latency could have covered.
    double now = static_cast<double>(uopClock);
    std::size_t cap = outstanding_.size();
    while (outCount_ > 0 && outstanding_[outHead_] <= now) {
        outHead_ = (outHead_ + 1) % cap;
        --outCount_;
    }

    double overlap;
    if (dependent || outCount_ == 0) {
        overlap = 1.0;
    } else {
        overlap = std::min<double>(static_cast<double>(outCount_ + 1),
                                   lfbEntries_);
    }
    outstanding_[(outHead_ + outCount_) % cap] = now + missWindowUops_;
    if (outCount_ < lfbEntries_) {
        ++outCount_;
    } else {
        outHead_ = (outHead_ + 1) % cap;
    }

    return overlap;
}

} // namespace bds
