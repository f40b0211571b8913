/**
 * @file
 * The reproduction scorecard: every encoded paper claim checked
 * against the characterization run, one PASS/FAIL row each.
 */

#include <iostream>

#include "core/findings.h"
#include "bench_common.h"

int
main(int argc, char **argv)
{
    bds::Session session(
        bdsbench::benchConfig("repro_scorecard", argc, argv));
    auto res = bdsbench::characterizedPipeline(session);
    std::cout << "Reproduction scorecard — paper claims vs this run\n\n";
    auto findings = bds::evaluatePaperFindings(res);
    std::size_t failed = bds::writeFindingsReport(std::cout, findings);
    // Known deviations (OFFCORE DATA / BRANCH directions) are
    // documented in EXPERIMENTS.md; the binary still exits 0 so the
    // bench sweep runs to completion.
    std::cout << (failed == 0 ? "\nall findings reproduced\n"
                              : "\nsee EXPERIMENTS.md for the "
                                "documented deviations\n");
    return 0;
}
