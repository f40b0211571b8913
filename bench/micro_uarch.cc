/**
 * @file
 * Google-benchmark microbenchmarks for the microarchitecture
 * substrate: cache/TLB/branch component throughput and end-to-end
 * SystemModel op-consumption rates (the simulator's key cost).
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "trace/runtime.h"
#include "uarch/machine.h"
#include "uarch/system.h"

#include "obs/session.h"

namespace {

/**
 * The machine the end-to-end BM_System* loops simulate: the session's
 * BDS_MACHINE geometry (main sets it before any benchmark runs), the
 * Table III sim default when unset, same registry as every bench.
 */
bds::NodeConfig simMachine;

void
BM_CacheAccess(benchmark::State &state)
{
    bds::SetAssocCache cache(bds::CacheConfig{
        static_cast<std::uint64_t>(state.range(0)), 8, 64});
    bds::Pcg32 rng(1);
    std::uint64_t footprint = 4ULL * state.range(0);
    for (auto _ : state) {
        std::uint64_t addr = rng.next64() % footprint;
        auto look = cache.access(addr);
        if (!look.hit)
            cache.insert(addr, bds::CoherenceState::Exclusive);
        benchmark::DoNotOptimize(look.hit);
    }
}
BENCHMARK(BM_CacheAccess)->Arg(32 * 1024)->Arg(256 * 1024)
    ->Arg(12 * 1024 * 1024);

void
BM_TlbTranslate(benchmark::State &state)
{
    bds::TwoLevelTlb tlb(bds::TlbConfig{64, 4}, bds::TlbConfig{64, 4},
                         bds::TlbConfig{512, 4}, 4096);
    bds::Pcg32 rng(2);
    std::uint64_t pages = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        auto out = tlb.translateData((rng.next64() % pages) * 4096);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_TlbTranslate)->Arg(32)->Arg(256)->Arg(4096);

void
BM_BranchPredict(benchmark::State &state)
{
    bds::GshareBranchPredictor bp(12);
    bds::Pcg32 rng(3);
    for (auto _ : state) {
        bool ok = bp.predictAndTrain(0x400000 + (rng.next() % 256) * 4,
                                     rng.nextDouble() < 0.7);
        benchmark::DoNotOptimize(ok);
    }
}
BENCHMARK(BM_BranchPredict);

/** End-to-end op throughput: sequential scan workload. */
void
BM_SystemScan(benchmark::State &state)
{
    bds::SystemModel sys(simMachine);
    bds::AddressSpace space;
    bds::CodeImage user(space, bds::Region::UserCode);
    auto fn = user.defineFunction(256);
    bds::ExecContext ctx(sys, 0, fn);
    std::uint64_t buf = space.allocate(bds::Region::Heap, 64ULL << 20);
    std::uint64_t off = 0;
    for (auto _ : state) {
        ctx.load(buf + off);
        off = (off + 64) % (64ULL << 20);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemScan);

/** End-to-end op throughput: pointer-chase workload. */
void
BM_SystemChase(benchmark::State &state)
{
    bds::SystemModel sys(simMachine);
    bds::AddressSpace space;
    bds::CodeImage user(space, bds::Region::UserCode);
    auto fn = user.defineFunction(256);
    bds::ExecContext ctx(sys, 0, fn);
    std::uint64_t buf = space.allocate(bds::Region::Heap, 64ULL << 20);
    bds::Pcg32 rng(4);
    for (auto _ : state) {
        ctx.loadDependent(buf + (rng.next64() % (64ULL << 20)) / 64 * 64);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemChase);

/** Mixed instruction stream through the full frontend + backend. */
void
BM_SystemMixedOps(benchmark::State &state)
{
    bds::SystemModel sys(simMachine);
    bds::AddressSpace space;
    bds::CodeImage user(space, bds::Region::UserCode);
    std::vector<bds::FunctionDesc> fns;
    for (int i = 0; i < 64; ++i)
        fns.push_back(user.defineFunction(256));
    bds::ExecContext ctx(sys, 0, fns[0]);
    std::uint64_t buf = space.allocate(bds::Region::Heap, 1ULL << 20);
    bds::Pcg32 rng(5);
    for (auto _ : state) {
        ctx.call(fns[rng.next() % fns.size()]);
        ctx.load(buf + (rng.next() % (1u << 20)) / 8 * 8);
        ctx.intOps(2);
        ctx.branch(rng.nextDouble() < 0.6);
        ctx.store(buf + (rng.next() % (1u << 20)) / 8 * 8);
        ctx.ret();
    }
    state.SetItemsProcessed(state.iterations() * 7);
}
BENCHMARK(BM_SystemMixedOps);

} // namespace

int
main(int argc, char **argv)
{
    // google-benchmark owns the command line, so RunConfig reads the
    // BDS_* environment only (machine, tracing, manifest) and
    // --benchmark_* flags pass through untouched.
    bds::Session session(bds::RunConfig::resolve("micro_uarch"));
    simMachine = bds::resolveMachineSpec(session.config().machineSpec);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
