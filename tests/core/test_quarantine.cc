/**
 * @file
 * The quarantine isolation contract (docs/ROBUSTNESS.md): when the
 * fault injector kills some workloads under FailPolicy::Quarantine,
 * the survivors' metric rows are bitwise identical to the same rows
 * of a clean sweep — a failure never perturbs its neighbours — and
 * the contract holds at every thread count. The sampled sweep
 * settles its failures the same way, trace counters included.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "fault/inject.h"
#include "obs/trace.h"
#include "sample/characterizer.h"
#include "workloads/registry.h"

namespace bds {
namespace {

/** The three workloads every test in this file kills. */
const char *const kVictims = "H-Grep,S-Union,H-Bayes";
constexpr std::size_t kNumVictims = 3;

/** Quick-scale sweep; arms the injector when `inject` is set. */
SweepReport
sweep(unsigned threads, bool inject, Matrix *matrix)
{
    if (inject) {
        FaultOptions opts;
        opts.throwAt = kVictims;
        FaultInjector::global().arm(opts);
    }
    WorkloadRunner runner(NodeConfig::defaultSim(),
                          ScaleProfile::quick(), 42);
    runner.setParallel(ParallelOptions{threads});
    RecoveryOptions rec;
    rec.policy = FailPolicy::Quarantine;
    runner.setRecovery(rec);
    SweepReport report;
    *matrix = runner.runAll(nullptr, nullptr, &report);
    FaultInjector::global().disarm();
    return report;
}

/**
 * Traced quick-scale quarantine sweep, full or sampled, with the
 * victims armed; returns the fault.quarantined counter total.
 */
std::uint64_t
tracedQuarantinedTotal(bool sampled)
{
    FaultOptions opts;
    opts.throwAt = kVictims;
    FaultInjector::global().arm(opts);
    WorkloadRunner runner(NodeConfig::defaultSim(),
                          ScaleProfile::quick(), 42);
    runner.setParallel(ParallelOptions{2});
    RecoveryOptions rec;
    rec.policy = FailPolicy::Quarantine;
    runner.setRecovery(rec);

    std::ostringstream trace;
    Tracer::global().enableStream(&trace);
    if (sampled) {
        SamplingOptions sopts;
        sopts.enabled = true;
        SampledCharacterizer(runner, sopts).runAll();
    } else {
        runner.runAll();
    }
    Tracer::global().disable();
    FaultInjector::global().disarm();

    const auto counters = Tracer::global().counterSummary();
    auto it = counters.find("fault.quarantined");
    return it == counters.end() ? 0 : it->second;
}

class QuarantineIsolation : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        Tracer::global().disable();
        FaultInjector::global().disarm();
    }

    /** Survivor rows must equal the clean run's rows for the same
     *  workloads, bit for bit. */
    void expectSurvivorRowsMatchClean(unsigned threads)
    {
        Matrix clean, survived;
        SweepReport clean_report = sweep(threads, false, &clean);
        SweepReport report = sweep(threads, true, &survived);

        std::vector<WorkloadId> all = allWorkloads();
        ASSERT_EQ(clean.rows(), all.size());
        ASSERT_EQ(survived.rows(), all.size() - kNumVictims);
        ASSERT_TRUE(clean_report.allOk());
        EXPECT_FALSE(report.allOk());
        EXPECT_EQ(report.quarantinedNames(),
                  (std::vector<std::string>{"H-Grep", "H-Bayes",
                                            "S-Union"}));

        // Map each clean row by name, then compare survivor rows.
        std::map<std::string, std::size_t> clean_row;
        for (std::size_t r = 0; r < all.size(); ++r)
            clean_row[all[r].name()] = r;
        std::vector<std::string> survivors = report.survivorNames();
        ASSERT_EQ(survivors.size(), survived.rows());
        for (std::size_t r = 0; r < survivors.size(); ++r) {
            std::size_t cr = clean_row.at(survivors[r]);
            for (std::size_t c = 0; c < clean.cols(); ++c) {
                double x = clean(cr, c), y = survived(r, c);
                EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0)
                    << survivors[r] << " col " << c << ": " << x
                    << " vs " << y;
            }
        }
    }
};

TEST_F(QuarantineIsolation, SurvivorRowsBitwiseIdenticalSerial)
{
    expectSurvivorRowsMatchClean(1);
}

TEST_F(QuarantineIsolation, SurvivorRowsBitwiseIdenticalParallel)
{
    expectSurvivorRowsMatchClean(4);
}

TEST_F(QuarantineIsolation, RecordsNameEveryVictimWithItsCause)
{
    Matrix m;
    SweepReport report = sweep(2, true, &m);
    ASSERT_EQ(report.records.size(), allWorkloads().size());
    std::size_t quarantined = 0;
    for (const RunRecord &r : report.records)
        if (r.status == RunStatus::Quarantined) {
            ++quarantined;
            EXPECT_EQ(r.code, ErrorCode::InjectedFault) << r.name;
            EXPECT_EQ(r.attempts, 1u) << r.name;
        } else {
            EXPECT_EQ(r.status, RunStatus::Ok) << r.name;
        }
    EXPECT_EQ(quarantined, kNumVictims);
}

TEST_F(QuarantineIsolation, RetriesHealAnAttemptGatedFault)
{
    // Injection limited to attempt 0 + one retry: every victim heals
    // and the sweep is whole again.
    FaultOptions opts;
    opts.throwAt = kVictims;
    opts.attempts = 1;
    FaultInjector::global().arm(opts);
    WorkloadRunner runner(NodeConfig::defaultSim(),
                          ScaleProfile::quick(), 42);
    RecoveryOptions rec;
    rec.policy = FailPolicy::Quarantine;
    rec.maxRetries = 1;
    runner.setRecovery(rec);
    SweepReport report;
    Matrix m = runner.runAll(nullptr, nullptr, &report);
    FaultInjector::global().disarm();

    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(m.rows(), allWorkloads().size());
    std::size_t retried = 0;
    for (const RunRecord &r : report.records)
        if (r.status == RunStatus::RetriedOk) {
            ++retried;
            EXPECT_EQ(r.attempts, 2u) << r.name;
        }
    EXPECT_EQ(retried, kNumVictims);
}

TEST_F(QuarantineIsolation, SampledSweepCountsQuarantinesLikeTheFullSweep)
{
    const std::uint64_t full = tracedQuarantinedTotal(false);
    EXPECT_EQ(full, kNumVictims);
    EXPECT_EQ(tracedQuarantinedTotal(true), full);
}

TEST_F(QuarantineIsolation, FailFastRethrowsTheLowestIndexedFailure)
{
    FaultOptions opts;
    opts.throwAt = kVictims;
    FaultInjector::global().arm(opts);
    WorkloadRunner runner(NodeConfig::defaultSim(),
                          ScaleProfile::quick(), 42);
    // Default policy is FailFast; H-Grep is the earliest victim in
    // allWorkloads() order, so the rethrown error must name it.
    try {
        runner.runAll();
        FAIL() << "fail-fast sweep did not throw";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InjectedFault);
        EXPECT_NE(std::string(e.what()).find("H-Grep"),
                  std::string::npos)
            << e.what();
    }
    FaultInjector::global().disarm();
}

} // namespace
} // namespace bds
