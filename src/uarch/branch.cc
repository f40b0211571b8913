#include "uarch/branch.h"

#include "common/log.h"

namespace bds {

GshareBranchPredictor::GshareBranchPredictor(unsigned history_bits)
{
    if (history_bits == 0 || history_bits > 24)
        BDS_FATAL("gshare history bits must be in [1, 24]");
    mask_ = (1u << history_bits) - 1;
    table_.assign(1u << history_bits, 2); // weakly taken
}

} // namespace bds
