/**
 * @file
 * The umbrella header of the public API.
 *
 * Embedding applications include this one header (or the
 * per-subsystem facades below, when compile time matters) instead of
 * reaching into the internal `src/<subsystem>/` headers — internal
 * layouts move between releases, the facade set does not:
 *
 *   bds/common.h     logging, fatal/typed errors, text tables, RNG
 *   bds/metrics.h    the 45-metric Table II schema and metric sets
 *   bds/uarch.h      machine geometry, presets, the simulated node
 *   bds/workloads.h  the 32-workload registry and data generators
 *   bds/stack.h      the Hadoop/Spark/Hive/... software-stack engines
 *   bds/core.h       the characterize→analyze→subset pipeline
 *   bds/sample.h     sampled simulation (record/profile/pick/replay)
 *   bds/obs.h        RunConfig, sessions, manifests, tracing
 *   bds/store.h      shared stores: leases, eviction, degradation
 *   bds/serve.h      the characterization service (engine + server)
 *
 * The five examples under examples/ are written against these
 * facades and double as the API's compatibility suite.
 */

#ifndef BDS_BDS_H
#define BDS_BDS_H

#include "bds/common.h"
#include "bds/metrics.h"
#include "bds/uarch.h"
#include "bds/workloads.h"
#include "bds/stack.h"
#include "bds/core.h"
#include "bds/sample.h"
#include "bds/obs.h"
#include "bds/store.h"
#include "bds/serve.h"

#endif // BDS_BDS_H
