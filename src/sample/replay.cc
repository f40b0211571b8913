#include "sample/replay.h"

#include <algorithm>

#include "common/log.h"

namespace bds {

namespace {

/** What to do with the ops of one interval. */
enum class IntervalMode : std::uint8_t
{
    Skip,   ///< fast-forward (DMA only)
    Warm,   ///< counter-frozen functional warming
    Detail, ///< live counters, snapshot at the end
};

/**
 * Routes a stream through the system according to the per-interval
 * plan, toggling the freeze mode and snapshotting counters at
 * interval boundaries.
 */
class PlanSink : public ExecTarget
{
  public:
    PlanSink(SystemModel &sys, std::uint64_t interval_uops,
             const std::vector<IntervalMode> &plan,
             const std::vector<int> &rep_of,
             std::vector<PmcCounters> &snaps, SampledReplayStats &stats)
        : sys_(sys), intervalUops_(interval_uops), plan_(plan),
          repOf_(rep_of), snaps_(snaps), stats_(stats)
    {
        enterInterval(0);
        left_ = intervalUops_;
    }

    void consume(unsigned core, const MicroOp &op) override
    {
        // Countdown to the interval boundary; ops arrive one at a
        // time, so the interval index only ever advances by one.
        if (left_ == 0) {
            leaveInterval();
            enterInterval(current_ + 1);
            left_ = intervalUops_;
        }
        --left_;
        ++stats_.totalOps;
        switch (mode_) {
          case IntervalMode::Skip:
            ++stats_.skippedOps;
            return;
          case IntervalMode::Warm:
            ++stats_.warmOps;
            break;
          case IntervalMode::Detail:
            ++stats_.detailOps;
            break;
        }
        sys_.consume(core, op);
    }

    unsigned numCores() const override { return sys_.numCores(); }

    /** DMA events always reach the node, whatever the mode. */
    void dmaFill(std::uint64_t addr, std::uint64_t bytes) override
    {
        sys_.dmaFill(addr, bytes);
    }

    /** Close the final interval after the stream ends. */
    void finish()
    {
        leaveInterval();
        sys_.setCounterFreeze(false);
    }

  private:
    void enterInterval(std::size_t interval)
    {
        current_ = interval;
        mode_ = interval < plan_.size() ? plan_[interval]
                                        : IntervalMode::Warm;
        if (mode_ == IntervalMode::Detail) {
            sys_.setCounterFreeze(false);
            sys_.resetCounters();
        } else {
            sys_.setCounterFreeze(true);
        }
    }

    void leaveInterval()
    {
        if (mode_ == IntervalMode::Detail
            && current_ < repOf_.size() && repOf_[current_] >= 0)
            snaps_[static_cast<std::size_t>(repOf_[current_])] =
                sys_.aggregateCounters();
    }

    SystemModel &sys_;
    std::uint64_t intervalUops_;
    const std::vector<IntervalMode> &plan_;
    const std::vector<int> &repOf_;
    std::vector<PmcCounters> &snaps_;
    SampledReplayStats &stats_;

    std::uint64_t left_ = 0; ///< uops left in the current interval
    std::size_t current_ = 0;
    IntervalMode mode_ = IntervalMode::Warm;
};

} // namespace

SampledReplayer::SampledReplayer(SystemModel &sys,
                                 std::uint64_t interval_uops,
                                 unsigned warmup_intervals)
    : sys_(sys), intervalUops_(interval_uops),
      warmupIntervals_(warmup_intervals)
{
    if (intervalUops_ == 0)
        BDS_FATAL("interval size must be at least one uop");
}

std::vector<PmcCounters>
SampledReplayer::replay(const Driver &drive,
                        const PickResult &picked,
                        SampledReplayStats *stats)
{
    // Build the per-interval plan. Representatives run in detail;
    // with a bounded warmup window, only the W intervals before each
    // representative are warmed and the rest are skipped. W == 0
    // warms everything.
    std::size_t n = static_cast<std::size_t>(
        (picked.totalOps + intervalUops_ - 1) / intervalUops_);
    for (const Representative &r : picked.reps)
        n = std::max(n, r.interval + 1);
    std::vector<IntervalMode> plan(
        n, warmupIntervals_ == 0 ? IntervalMode::Warm
                                 : IntervalMode::Skip);
    std::vector<int> rep_of(n, -1);
    for (std::size_t r = 0; r < picked.reps.size(); ++r) {
        std::size_t i = picked.reps[r].interval;
        plan[i] = IntervalMode::Detail;
        rep_of[i] = static_cast<int>(r);
    }
    if (warmupIntervals_ > 0) {
        for (const Representative &r : picked.reps) {
            std::size_t lo = r.interval > warmupIntervals_
                ? r.interval - warmupIntervals_ : 0;
            for (std::size_t i = lo; i < r.interval; ++i)
                if (plan[i] == IntervalMode::Skip)
                    plan[i] = IntervalMode::Warm;
        }
    }

    std::vector<PmcCounters> snaps(picked.reps.size());
    SampledReplayStats local;
    PlanSink sink(sys_, intervalUops_, plan, rep_of, snaps, local);
    drive(sink);
    sink.finish();

    if (stats)
        *stats = local;
    return snaps;
}

} // namespace bds
