//===- harness/LabTraceSource.h - The labs' trace decode policy -*- C++ -*-===//
///
/// \file
/// ForthLab::traceSource and JavaLab::traceSource, written once: which
/// TraceSource a replay of one benchmark gets for a decode mode, and
/// when a trace stays resident. Both labs hold their materialized
/// traces in a `Traces` map under `CacheMutex`, capture through
/// `captureTrace()` (which saves the trace cache file best-effort) and
/// materialize through `trace()`; each befriends labTraceSource.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_LABTRACESOURCE_H
#define VMIB_HARNESS_LABTRACESOURCE_H

#include "vmcore/DispatchTrace.h"
#include "vmcore/TraceSource.h"

#include <cstdio>
#include <mutex>
#include <string>

namespace vmib {

/// The trace of \p Benchmark as \p Lab replays it under \p Mode;
/// \p CacheKey names its trace cache file ("forth-gray", ...).
///
/// A trace the lab already holds is borrowed unless streaming was
/// asked for. Materialize, or Auto within the decode budget, pins the
/// whole event arena. Stream, or Auto over budget, opens the validated
/// cache file; with no such file a lab that does not hold the trace
/// captures it, which saves the file, and streams that, so even a cold
/// streamed sweep never keeps the arena. A trace already resident, or
/// one whose file could not be written, replays materialized — failing
/// a replay over a missing optimization would be worse than the
/// one-time footprint.
template <class LabT>
TraceSource labTraceSource(LabT &Lab, const std::string &Benchmark,
                           const std::string &CacheKey,
                           TraceDecodeMode Mode) {
  if (Mode == TraceDecodeMode::Auto)
    Mode = traceDecodeMode(); // the VMIB_TRACE_DECODE override
  if (Mode != TraceDecodeMode::Stream) {
    // A trace this lab already materialized is free to borrow —
    // re-decoding it from disk would only add I/O.
    std::lock_guard<std::mutex> Lock(Lab.CacheMutex);
    auto It = Lab.Traces.find(Benchmark);
    if (It != Lab.Traces.end())
      return TraceSource(It->second);
  }
  if (Mode == TraceDecodeMode::Materialize ||
      (Mode == TraceDecodeMode::Auto &&
       Lab.referenceSteps(Benchmark) * sizeof(DispatchTrace::Event) <=
           traceDecodeBudgetBytes()))
    return TraceSource(Lab.trace(Benchmark));
  // referenceSteps above never materializes, so a billion-event
  // workload reaches this point with O(1) memory.
  std::string CachePath = DispatchTrace::cachePathFor(CacheKey);
  if (!CachePath.empty()) {
    TraceSource S;
    std::string Diag;
    if (TraceSource::openStreaming(CachePath, Lab.referenceHash(Benchmark), S,
                                   &Diag))
      return S;
    if (Diag.find("cannot open") == std::string::npos)
      std::fprintf(stderr, "warning: ignoring trace cache entry: %s\n",
                   Diag.c_str());
  }
  bool Resident;
  {
    std::lock_guard<std::mutex> Lock(Lab.CacheMutex);
    Resident = Lab.Traces.count(Benchmark) != 0;
  }
  if (!CachePath.empty() && !Resident) {
    DispatchTrace Captured = Lab.captureTrace(Benchmark);
    TraceSource S;
    if (TraceSource::openStreaming(CachePath, Lab.referenceHash(Benchmark),
                                   S))
      return S; // the capture dies here
    std::lock_guard<std::mutex> Lock(Lab.CacheMutex);
    Lab.Traces.emplace(Benchmark, std::move(Captured));
  }
  const DispatchTrace &T = Lab.trace(Benchmark);
  if (Mode == TraceDecodeMode::Stream)
    std::fprintf(stderr,
                 "warning: %s: no streamable trace cache file "
                 "(VMIB_TRACE_CACHE unset or save failed); replaying "
                 "materialized\n",
                 Benchmark.c_str());
  return TraceSource(T);
}

} // namespace vmib

#endif // VMIB_HARNESS_LABTRACESOURCE_H
