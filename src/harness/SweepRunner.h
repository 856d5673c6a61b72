//===- harness/SweepRunner.h - Workload-parallel sweep loop -----*- C++ -*-===//
///
/// \file
/// The workload-level thread layer of SweepExecutor::runAll. Sweep
/// scheduling is *trace-affine*: one job per workload, so a worker
/// captures (only when the result store misses) and then streams one
/// trace, feeding every configuration riding it (GangReplayer) instead
/// of interleaving unrelated event streams. Each job owns its layouts,
/// predictors and counters, which is what makes this safe: the labs
/// only share their mutex-guarded caches (traces, static resources).
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_SWEEPRUNNER_H
#define VMIB_HARNESS_SWEEPRUNNER_H

#include <cstddef>
#include <functional>

namespace vmib {

/// Worker count for sweeps: the VMIB_THREADS environment variable
/// if set (>=1), otherwise std::thread::hardware_concurrency (min 1).
unsigned defaultSweepThreads();

/// Runs Job(0), ..., Job(N-1) on \p Threads workers (at most N; the
/// calling thread is one of them) that claim indices through an atomic
/// cursor. Blocks until every job finished; the first exception thrown
/// by any job is rethrown (the other jobs still run).
void parallelFor(size_t N, unsigned Threads,
                 const std::function<void(size_t)> &Job);

} // namespace vmib

#endif // VMIB_HARNESS_SWEEPRUNNER_H
