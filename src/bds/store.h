/**
 * @file
 * Facade: the fleet-safe shared storage layer both caches sit on —
 * bds::SharedStore (fsync-before-rename publish, LRU byte budgets,
 * store-down degradation and self-healing), the cross-process
 * single-flight flock leases (bds::Lease, acquireLease) and the
 * crash-rebuildable recency index (bds::StoreIndex), plus the
 * process-wide bds::storeStats() counters.
 */

#ifndef BDS_BDS_STORE_H
#define BDS_BDS_STORE_H

#include "store/index.h"
#include "store/lease.h"
#include "store/shared.h"

#endif // BDS_BDS_STORE_H
