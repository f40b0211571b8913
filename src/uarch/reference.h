/**
 * @file
 * Reference (pre-flattening) implementations of the hot lookup
 * structures: array-of-structs cache, TLB arrays, and the gshare
 * predictor, kept verbatim from before the structure-of-arrays
 * rewrite of cache.h/tlb.h/branch.h.
 *
 * They exist for one consumer and are deliberately NOT used by the
 * simulator itself: tests/uarch/test_flat_equivalence.cc drives both
 * models with identical operation streams and requires bit-identical
 * observable behavior (hits, states, evictions, LRU victim choice).
 *
 * The flat model grew combined one-scan operations (insertOrSetState,
 * setStateDirty, markSharedIfPresent, ...). The reference expresses
 * each one as the exact primitive sequence it replaced, so the
 * equivalence test pins the combined op against its definition.
 */

#ifndef BDS_UARCH_REFERENCE_H
#define BDS_UARCH_REFERENCE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "uarch/branch.h"
#include "uarch/cache.h"
#include "uarch/tlb.h"

namespace bds::refmodel {

/** Array-of-structs set-associative cache (the seed implementation). */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &cfg);

    CacheLookup probe(std::uint64_t addr) const;
    CacheLookup access(std::uint64_t addr);
    Eviction insert(std::uint64_t addr, CoherenceState state,
                    bool dirty = false);
    Eviction insertOrSetState(std::uint64_t addr, CoherenceState state);
    void setState(std::uint64_t addr, CoherenceState state);
    void setStateDirty(std::uint64_t addr, CoherenceState state);
    bool setStateIfPresent(std::uint64_t addr, CoherenceState state);
    void setDirty(std::uint64_t addr);
    bool setDirtyIfPresent(std::uint64_t addr);
    void markShared(std::uint64_t addr);
    bool markSharedIfPresent(std::uint64_t addr, bool also_dirty = false);
    bool isMarkedShared(std::uint64_t addr) const;
    bool invalidate(std::uint64_t addr);
    std::uint64_t validLines() const;
    void forEachLine(
        const std::function<void(std::uint64_t, CoherenceState, bool)>
            &fn) const;
    const CacheConfig &config() const { return cfg_; }

    std::uint64_t lineAddr(std::uint64_t addr) const
    {
        return addr / cfg_.lineBytes;
    }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        CoherenceState state = CoherenceState::Invalid;
        bool dirty = false;
        bool sharedEver = false;
    };

    int findWay(std::uint64_t set, std::uint64_t tag) const;

    Line &lineAt(std::uint64_t set, std::uint32_t way)
    {
        return lines_[set * cfg_.assoc + way];
    }

    const Line &lineAt(std::uint64_t set, std::uint32_t way) const
    {
        return lines_[set * cfg_.assoc + way];
    }

    CacheConfig cfg_;
    std::uint64_t numSets_;
    std::uint64_t tick_ = 0;
    std::vector<Line> lines_;
};

/** Valid-flag TLB level (the seed implementation). */
class TlbArray
{
  public:
    explicit TlbArray(const TlbConfig &cfg);

    bool access(std::uint64_t page);
    void insert(std::uint64_t page);

  private:
    struct Entry
    {
        std::uint64_t page = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    TlbConfig cfg_;
    std::uint32_t numSets_;
    std::uint64_t tick_ = 0;
    std::vector<Entry> entries_;
};

/** Two-level TLB over the reference arrays. */
class TwoLevelTlb
{
  public:
    TwoLevelTlb(const TlbConfig &l1i, const TlbConfig &l1d,
                const TlbConfig &stlb, std::uint32_t page_bytes = 4096);

    TlbOutcome translateCode(std::uint64_t addr);
    TlbOutcome translateData(std::uint64_t addr);

  private:
    TlbOutcome translate(TlbArray &l1, std::uint64_t addr);

    std::uint32_t pageShift_;
    TlbArray itlb_;
    TlbArray dtlb_;
    TlbArray stlb_;
};

/** Gshare predictor recomputing the index mask per branch (seed). */
class GshareBranchPredictor
{
  public:
    explicit GshareBranchPredictor(unsigned history_bits = 12);

    bool predictAndTrain(std::uint64_t ip, bool taken);

  private:
    unsigned historyBits_;
    std::uint32_t history_ = 0;
    std::vector<std::uint8_t> table_;
};

} // namespace bds::refmodel

#endif // BDS_UARCH_REFERENCE_H
