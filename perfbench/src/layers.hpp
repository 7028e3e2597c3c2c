// The traced run's per-layer ledger.  Every figure is taken from outside
// the library: calls into each module's public functions on the served lab
// model's shapes, timed here, plus STATS counter deltas read over the wire.
// No library code is instrumented.
#ifndef KINET_PERFBENCH_LAYERS_H
#define KINET_PERFBENCH_LAYERS_H

#include <cstdint>

#include "fleet.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Sampling stages at batch 128 (us/row), the whole cursor and push paths,
/// and CSV bytes per row.
void stage_metrics(const Fleet& fleet, Report& report);

/// Protocol parse, in-process handle(), time outside the handler, event-loop
/// counters, the forwarding hop, and the open-loop sender's lateness.
/// Responses go to `checks` for verification.
void service_metrics(Fleet& fleet, std::uint64_t seed, Report& report, WindowResult& checks);

/// Snapshot write/read, registry put under readers, replicate_to, per-epoch
/// fit time and the job executor's overhead.  Runs FEDTRAIN jobs, so it
/// goes last (they publish lab to B).
void snapshot_cluster_job_metrics(Fleet& fleet, Report& report, WindowResult& checks);

/// One thread-sweep point (the pool size comes from KINET_NUM_THREADS):
/// in-process push-path rows/s and a short served stream-bulk pass.
void sweep_metrics(Fleet& fleet, std::uint64_t seed, Report& report, WindowResult& checks);

}  // namespace perfbench

#endif  // KINET_PERFBENCH_LAYERS_H
