/**
 * @file
 * Pins the flat structure-of-arrays lookup structures (cache.h,
 * tlb.h, branch.h) against the reference array-of-structs
 * implementations they replaced (reference.h): identical operation
 * streams must produce identical observable behavior — lookup
 * results, eviction victims, invalidate results, line census, and
 * full per-slot content. This is the per-structure half of the
 * fast-simulation contract; the whole-system half lives in
 * test_warm_paths.cc.
 */

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "uarch/branch.h"
#include "uarch/cache.h"
#include "uarch/reference.h"
#include "uarch/tlb.h"

namespace {

using bds::CacheConfig;
using bds::CoherenceState;
using bds::Pcg32;
using bds::TlbConfig;
using bds::TlbOutcome;

/** One line's observable content, for whole-cache comparison. */
using LineSnapshot = std::tuple<std::uint64_t, CoherenceState, bool>;

template <typename Cache>
std::vector<LineSnapshot>
snapshot(const Cache &c)
{
    std::vector<LineSnapshot> lines;
    c.forEachLine([&](std::uint64_t la, CoherenceState s, bool dirty) {
        lines.emplace_back(la, s, dirty);
    });
    return lines;
}

CoherenceState
validState(std::uint32_t pick)
{
    switch (pick % 3) {
    case 0: return CoherenceState::Shared;
    case 1: return CoherenceState::Exclusive;
    default: return CoherenceState::Modified;
    }
}

/**
 * Drive flat and reference caches with one random operation stream
 * and require identical behavior at every step. Addresses are uniform
 * over the footprint; with `hot` set, 3/4 of them land in its first
 * eighth instead (an L1's view: mostly hits, a steady eviction
 * stream).
 */
void
runCachePair(const CacheConfig &cfg, std::uint64_t footprint,
             int num_ops, std::uint32_t seed, bool hot = false)
{
    bds::SetAssocCache flat(cfg);
    bds::refmodel::SetAssocCache ref(cfg);
    Pcg32 rng(seed);
    const auto lines = static_cast<std::uint32_t>(footprint / 64);

    for (int i = 0; i < num_ops; ++i) {
        std::uint32_t line = hot && rng.nextBounded(4) != 0
            ? rng.nextBounded(lines / 8)
            : rng.nextBounded(lines);
        std::uint64_t addr = line * 64ULL + rng.nextBounded(64);
        std::uint32_t op = rng.nextBounded(10);
        switch (op) {
        case 0: { // probe
            auto a = flat.probe(addr);
            auto b = ref.probe(addr);
            ASSERT_EQ(a.hit, b.hit) << "op " << i;
            ASSERT_EQ(a.state, b.state) << "op " << i;
            break;
        }
        case 1:
        case 2: { // access (LRU-bumping)
            auto a = flat.access(addr);
            auto b = ref.access(addr);
            ASSERT_EQ(a.hit, b.hit) << "op " << i;
            ASSERT_EQ(a.state, b.state) << "op " << i;
            break;
        }
        case 3:
        case 4: { // insert when absent (dirty half the time)
            if (ref.probe(addr).hit)
                break;
            CoherenceState st = validState(rng.nextBounded(3));
            bool dirty = rng.nextBounded(2) == 0;
            auto a = flat.insert(addr, st, dirty);
            auto b = ref.insert(addr, st, dirty);
            ASSERT_EQ(a.valid, b.valid) << "op " << i;
            ASSERT_EQ(a.lineAddr, b.lineAddr) << "op " << i;
            ASSERT_EQ(a.dirty, b.dirty) << "op " << i;
            break;
        }
        case 5: { // insertOrSetState
            CoherenceState st = validState(rng.nextBounded(3));
            auto a = flat.insertOrSetState(addr, st);
            auto b = ref.insertOrSetState(addr, st);
            ASSERT_EQ(a.valid, b.valid) << "op " << i;
            ASSERT_EQ(a.lineAddr, b.lineAddr) << "op " << i;
            ASSERT_EQ(a.dirty, b.dirty) << "op " << i;
            break;
        }
        case 6: { // setStateIfPresent / setStateDirty on a hit
            CoherenceState st = validState(rng.nextBounded(3));
            if (rng.nextBounded(2) == 0) {
                ASSERT_EQ(flat.setStateIfPresent(addr, st),
                          ref.setStateIfPresent(addr, st))
                    << "op " << i;
            } else if (ref.probe(addr).hit) {
                flat.setStateDirty(addr, st);
                ref.setStateDirty(addr, st);
            }
            break;
        }
        case 7: { // dirty / shared marking
            bool also_dirty = rng.nextBounded(2) == 0;
            ASSERT_EQ(flat.setDirtyIfPresent(addr),
                      ref.setDirtyIfPresent(addr))
                << "op " << i;
            ASSERT_EQ(flat.markSharedIfPresent(addr, also_dirty),
                      ref.markSharedIfPresent(addr, also_dirty))
                << "op " << i;
            ASSERT_EQ(flat.isMarkedShared(addr),
                      ref.isMarkedShared(addr))
                << "op " << i;
            break;
        }
        case 8: { // invalidate
            ASSERT_EQ(flat.invalidate(addr), ref.invalidate(addr))
                << "op " << i;
            break;
        }
        default: { // census
            ASSERT_EQ(flat.validLines(), ref.validLines())
                << "op " << i;
            break;
        }
        }
    }

    // Whole-content comparison: same lines, same states, same dirty
    // bits, in the same storage order (victim choice must match
    // way-for-way for the iteration orders to agree).
    EXPECT_EQ(snapshot(flat), snapshot(ref));
    EXPECT_EQ(flat.validLines(), ref.validLines());
}

TEST(FlatCacheEquivalence, Pow2SetsL1Geometry)
{
    runCachePair({32 * 1024, 8, 64}, 256 * 1024, 60000, 11);
    runCachePair({32 * 1024, 8, 64}, 64 * 1024, 60000, 13, /*hot=*/true);
}

TEST(FlatCacheEquivalence, Factor3SetsSmall)
{
    // 48 sets = 3 * 2^4 exercises the odd-factor-3 set mapping.
    runCachePair({48 * 4 * 64, 4, 64}, 64 * 1024, 60000, 23);
}

TEST(FlatCacheEquivalence, GenericOddSets)
{
    // 20 sets = 5 * 2^2 takes the generic modulo path.
    runCachePair({20 * 2 * 64, 2, 64}, 32 * 1024, 60000, 37);
}

TEST(FlatCacheEquivalence, TableIIIL3Geometry)
{
    // The production 12 MB / 16-way L3: 12288 sets = 3 * 2^12.
    runCachePair({12 * 1024 * 1024, 16, 64}, 64ULL << 20, 40000, 41);
}

TEST(FlatCacheEquivalence, DirectMapped)
{
    runCachePair({4 * 1024, 1, 64}, 16 * 1024, 30000, 53);
}

TEST(FlatCacheEquivalence, SetMapStrategyIsChosenAtConstruction)
{
    using Kind = bds::SetAssocCache::SetMapKind;
    // Pow2 sets: 32 KB / 8-way / 64 B = 64 sets.
    EXPECT_EQ(bds::SetAssocCache({32 * 1024, 8, 64}).setMapKind(),
              Kind::Pow2);
    // Factor-3 sets: Table III L3, 12288 sets = 3 * 2^12.
    EXPECT_EQ(
        bds::SetAssocCache({12 * 1024 * 1024, 16, 64}).setMapKind(),
        Kind::Factor3);
    // Factor-5 sets: 20 sets = 5 * 2^2 must fall back to modulo —
    // the divide-free paths only cover pow2 and 3*2^k.
    EXPECT_EQ(bds::SetAssocCache({20 * 2 * 64, 2, 64}).setMapKind(),
              Kind::Modulo);
    // Factor-7: another DSE-reachable shape, also modulo.
    EXPECT_EQ(bds::SetAssocCache({7 * 16 * 4 * 64, 4, 64}).setMapKind(),
              Kind::Modulo);
}

TEST(FlatCacheEquivalence, NonTableIIIDseGeometry)
{
    // Regression for the DSE sweep: a 10-way, 160-set L2-like shape
    // (sets = 5 * 2^5) that no preset in the seed tree ever built.
    // The flat cache must agree with the reference model on the
    // modulo fallback, not only on the tuned pow2/factor-3 paths.
    const CacheConfig cfg{160 * 10 * 64, 10, 64};
    EXPECT_EQ(bds::SetAssocCache(cfg).setMapKind(),
              bds::SetAssocCache::SetMapKind::Modulo);
    runCachePair(cfg, 2 * 1024 * 1024, 60000, 61);
}

TEST(FlatTlbEquivalence, OutcomeStreamsMatch)
{
    TlbConfig l1i{64, 4}, l1d{64, 4}, stlb{512, 4};
    bds::TwoLevelTlb flat(l1i, l1d, stlb, 4096);
    bds::refmodel::TwoLevelTlb ref(l1i, l1d, stlb, 4096);
    Pcg32 rng(7);

    for (int i = 0; i < 200000; ++i) {
        // Mix of strided code and clustered-random data addresses,
        // spanning more pages than the STLB holds.
        std::uint64_t code = 0x400000ULL + (i % 4096) * 4ULL
            + rng.nextBounded(4) * (1ULL << 12);
        std::uint64_t data = 0x10000000ULL
            + rng.nextBounded(4096) * 4096ULL + rng.nextBounded(4096);
        TlbOutcome fc = flat.translateCode(code);
        TlbOutcome rc = ref.translateCode(code);
        ASSERT_EQ(fc, rc) << "code translation " << i;
        TlbOutcome fd = flat.translateData(data);
        TlbOutcome rd = ref.translateData(data);
        ASSERT_EQ(fd, rd) << "data translation " << i;
    }
}

TEST(FlatBranchEquivalence, PredictionStreamsMatch)
{
    for (unsigned bits : {1u, 8u, 12u}) {
        bds::GshareBranchPredictor flat(bits);
        bds::refmodel::GshareBranchPredictor ref(bits);
        Pcg32 rng(100 + bits);
        for (int i = 0; i < 100000; ++i) {
            std::uint64_t ip = 0x400000ULL + rng.nextBounded(512) * 4ULL;
            // Biased-taken with data-dependent flips, like real loops.
            bool taken = rng.nextBounded(10) < 7;
            ASSERT_EQ(flat.predictAndTrain(ip, taken),
                      ref.predictAndTrain(ip, taken))
                << "branch " << i << " with " << bits << " history bits";
        }
    }
}

} // namespace
