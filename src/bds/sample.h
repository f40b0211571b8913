/**
 * @file
 * Facade: sampled simulation — the end-to-end characterizer
 * (bds::SampledCharacterizer, SamplingOptions), the capture/replay
 * seam design-space sweeps replay per geometry (sample/capture.h),
 * and the warmup-aware replayer (bds::SampledReplayer).
 */

#ifndef BDS_BDS_SAMPLE_H
#define BDS_BDS_SAMPLE_H

#include "sample/capture.h"
#include "sample/characterizer.h"
#include "sample/options.h"
#include "sample/replay.h"

#endif // BDS_BDS_SAMPLE_H
