/**
 * @file
 * The metric-CSV cache key of the figure/table benches
 * (bench/bench_common.h): a cached matrix may only be loaded, or
 * overwritten, by a configuration that computes that same matrix.
 */

#include <gtest/gtest.h>

#include "bench_common.h"
#include "serve/confighash.h"

using bds::RunConfig;
using bdsbench::metricsCachePath;

namespace {

RunConfig
quickConfig(bool sampled = false)
{
    RunConfig cfg;
    cfg.scaleName = "quick";
    cfg.seed = 42;
    cfg.sampling.enabled = sampled;
    return cfg;
}

} // namespace

TEST(BenchCacheKey, DefaultKnobsKeepTheLegacyNames)
{
    EXPECT_EQ(metricsCachePath(quickConfig()), "bds_metrics_quick_42.csv");
    EXPECT_EQ(metricsCachePath(quickConfig(true)),
              "bds_metrics_quick_42_sampled.csv");

    RunConfig westmere = quickConfig(true);
    westmere.machineSpec = "westmere";
    EXPECT_EQ(metricsCachePath(westmere),
              "bds_metrics_quick_42_westmere_sampled.csv");

    // Knobs that cannot change the matrix do not change the name.
    RunConfig observed = quickConfig();
    observed.parallel.threads = 3;
    observed.trace = true;
    observed.fault.ioAt = "store.enospc";
    EXPECT_EQ(metricsCachePath(observed), "bds_metrics_quick_42.csv");
}

TEST(BenchCacheKey, NonDefaultSamplingKnobsAddTheConfigHash)
{
    RunConfig interval = quickConfig(true);
    interval.sampling.intervalUops = 20000;
    RunConfig kmax = quickConfig(true);
    kmax.sampling.kMax = 3;

    for (const RunConfig &cfg : {interval, kmax})
        EXPECT_EQ(metricsCachePath(cfg),
                  "bds_metrics_quick_42_sampled_"
                      + bds::runConfigHashHex(cfg) + ".csv");
    EXPECT_NE(metricsCachePath(interval), metricsCachePath(kmax));
}

TEST(BenchCacheKey, FaultRunsNeverTakeTheCleanName)
{
    // A retry-healed injected run passes SweepReport::allOk(), yet its
    // healed rows come from attempt-salted seeds: it must not write
    // under the name the clean matrix is compared by.
    RunConfig healed = quickConfig();
    healed.fault.throwAt = "*";
    healed.fault.attempts = 1;
    healed.fault.recovery.maxRetries = 1;
    EXPECT_EQ(metricsCachePath(healed),
              "bds_metrics_quick_42_" + bds::runConfigHashHex(healed)
                  + ".csv");

    RunConfig quarantine = quickConfig();
    quarantine.fault.recovery.policy = bds::FailPolicy::Quarantine;
    EXPECT_NE(metricsCachePath(quarantine), "bds_metrics_quick_42.csv");
}
