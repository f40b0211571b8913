/** @file Tests for trace recording, serialization, and replay. */

#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "trace/recorder.h"
#include "trace/runtime.h"
#include "uarch/system.h"

namespace {

using bds::AddressSpace;
using bds::CodeImage;
using bds::CountingSink;
using bds::ExecContext;
using bds::MicroOp;
using bds::NodeConfig;
using bds::Region;
using bds::SystemModel;
using bds::TraceRecorder;

TEST(Recorder, TeesToDownstreamSink)
{
    CountingSink downstream;
    TraceRecorder rec(&downstream);
    AddressSpace space;
    CodeImage user(space, Region::UserCode);
    ExecContext ctx(rec, 0, user.defineFunction(128));
    ctx.load(0x7f0000000000ULL);
    ctx.intOps(3);
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(downstream.total, 4u);
}

TEST(Recorder, ReplayReproducesTheStream)
{
    TraceRecorder rec;
    AddressSpace space;
    CodeImage user(space, Region::UserCode);
    ExecContext ctx(rec, 2, user.defineFunction(128));
    ctx.load(0x7f0000000040ULL);
    ctx.loadDependent(0x7f0000000080ULL);
    ctx.store(0x7f00000000c0ULL);
    ctx.branch(true);
    ctx.microcoded(3);

    CountingSink sink;
    rec.replay(sink);
    EXPECT_EQ(sink.total, 7u);
    EXPECT_EQ(sink.loads, 2u);
    EXPECT_EQ(sink.stores, 1u);
    EXPECT_EQ(sink.branches, 1u);
    EXPECT_EQ(sink.instructions, 5u);
    EXPECT_EQ(sink.maxCore, 2u);
}

/**
 * What save() writes is the quantity the trace-size accounting
 * reports: a 20-byte header ("BDSTRACE", version, event count) plus
 * 20 bytes per event, DMA fills included.
 */
TEST(Recorder, SaveWritesHeaderPlusTwentyBytesPerEvent)
{
    TraceRecorder rec;
    std::ostringstream empty;
    rec.save(empty);
    EXPECT_EQ(empty.str().size(), 20u);

    AddressSpace space;
    CodeImage user(space, Region::UserCode);
    ExecContext ctx(rec, 1, user.defineFunction(128));
    for (int i = 0; i < 8; ++i) {
        ctx.load(0x7f0000000000ULL + i * 64);
        ctx.branch(i & 1);
    }
    rec.recordDma(0xffff900000000000ULL, 4096);
    ASSERT_EQ(rec.size(), 17u);

    std::ostringstream buf;
    rec.save(buf);
    const std::string bytes = buf.str();
    EXPECT_EQ(bytes.size(), 20u + 20u * rec.size());
    EXPECT_EQ(bytes.substr(0, 8), "BDSTRACE");
}

/**
 * The headline property: replaying a recorded run into an
 * identically configured fresh SystemModel reproduces the counters
 * exactly.
 */
TEST(Recorder, ReplayIntoSameConfigIsExact)
{
    NodeConfig cfg = NodeConfig::defaultSim();
    SystemModel sys(cfg);
    TraceRecorder rec(&sys);
    AddressSpace space;
    CodeImage user(space, Region::UserCode);
    std::vector<bds::FunctionDesc> fns;
    for (int i = 0; i < 16; ++i)
        fns.push_back(user.defineFunction(192));
    ExecContext c0(rec, 0, fns[0]);
    ExecContext c1(rec, 1, fns[1]);
    std::uint64_t buf = space.allocate(Region::Heap, 4 << 20);
    bds::Pcg32 rng(3);
    for (int i = 0; i < 20000; ++i) {
        ExecContext &ctx = (i & 1) ? c1 : c0;
        ctx.call(fns[rng.nextBounded(16)]);
        ctx.load(buf + (rng.next() % (4u << 20)) / 8 * 8);
        ctx.branch(rng.nextDouble() < 0.7);
        if (i % 5 == 0)
            ctx.store(buf + (rng.next() % (4u << 20)) / 8 * 8);
        ctx.ret();
        if (i % 4096 == 0) {
            std::uint64_t addr = buf + (rng.next() % (2u << 20));
            rec.recordDma(addr, 8192);
            sys.dmaFill(addr, 8192);
        }
    }
    bds::PmcCounters live = sys.aggregateCounters();

    SystemModel replayed(cfg);
    rec.replay(replayed, [&](std::uint64_t a, std::uint64_t n) {
        replayed.dmaFill(a, n);
    });
    bds::PmcCounters again = replayed.aggregateCounters();

    EXPECT_EQ(live.instructions, again.instructions);
    EXPECT_EQ(live.uops, again.uops);
    EXPECT_DOUBLE_EQ(live.cycles, again.cycles);
    EXPECT_EQ(live.l1iMisses, again.l1iMisses);
    EXPECT_EQ(live.l2Misses, again.l2Misses);
    EXPECT_EQ(live.l3Misses, again.l3Misses);
    EXPECT_EQ(live.loadLlcMiss, again.loadLlcMiss);
    EXPECT_EQ(live.dtlbWalks, again.dtlbWalks);
    EXPECT_EQ(live.branchesMispredicted, again.branchesMispredicted);
    EXPECT_EQ(live.snoopHitM, again.snoopHitM);
    EXPECT_EQ(live.offcoreWb, again.offcoreWb);
}

/** Replaying into a bigger L3 must not increase LLC misses. */
TEST(Recorder, BiggerLlcNeverHurtsOnReplay)
{
    NodeConfig cfg = NodeConfig::defaultSim();
    TraceRecorder rec;
    {
        AddressSpace space;
        CodeImage user(space, Region::UserCode);
        ExecContext ctx(rec, 0, user.defineFunction(192));
        std::uint64_t buf = space.allocate(Region::Heap, 24 << 20);
        for (int pass = 0; pass < 2; ++pass)
            ctx.scan(buf, 24 << 20, 256, 1);
    }
    auto misses_at = [&](std::uint64_t l3_bytes) {
        NodeConfig c = cfg;
        c.l3.sizeBytes = l3_bytes;
        SystemModel sys(c);
        rec.replay(sys, [&](std::uint64_t a, std::uint64_t n) {
            sys.dmaFill(a, n);
        });
        return sys.aggregateCounters().l3Misses;
    };
    std::uint64_t small = misses_at(6ULL << 20);
    std::uint64_t big = misses_at(48ULL << 20);
    EXPECT_LT(big, small);
}

} // namespace
