//===- harness/Auditor.cpp - Sampled redundant-execution audit ------------===//

#include "harness/Auditor.h"

#include "harness/SweepExecutor.h"
#include "support/Random.h"
#include "vmcore/DispatchTrace.h"

#include <cstdio>
#include <cstdlib>

using namespace vmib;

namespace {

uint64_t fnv1aString(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

} // namespace

bool vmib::parseAuditRate(const std::string &Text, AuditPlan &Plan,
                          std::string &Error) {
  const char *C = Text.c_str();
  char *End = nullptr;
  double Rate = std::strtod(C, &End);
  if (End == C || *End != '\0' || Rate < 0 || Rate > 1) {
    Error = "bad audit rate '" + Text + "' (expected 0..1)";
    return false;
  }
  Plan.Rate = Rate;
  return true;
}

bool vmib::decideAudit(const AuditPlan &Plan, const SweepSpec &Spec,
                       size_t Workload, size_t Member) {
  if (Plan.Rate <= 0)
    return false;
  if (Plan.Rate >= 1)
    return true;
  // Content identity only: the member's configuration key (strategy,
  // predictor geometry, CPU — deliberately shape-free, same feed as
  // the store key) and the workload's suite-qualified name. Shard
  // layout, thread count, decode mode and the spec's display name do
  // not participate, so the sample is stable across every way of
  // executing the same sweep.
  uint64_t CfgKey = memberCostKey(Spec, Member);
  uint64_t Bench =
      fnv1aString(Spec.Suite + "-" + Spec.Benchmarks[Workload]);
  SplitMix64 G(Plan.Seed ^ (CfgKey * 0x2545F4914F6CDD1DULL) ^
               (Bench * 0x9E3779B97F4A7C15ULL));
  return static_cast<double>(G.next() >> 11) * 0x1.0p-53 < Plan.Rate;
}

const char *vmib::auditVerdictId(AuditVerdict V) {
  switch (V) {
  case AuditVerdict::Match:
    return "match";
  case AuditVerdict::StoreCorruption:
    return "store_corruption";
  case AuditVerdict::ComputeDivergence:
    return "compute_divergence";
  case AuditVerdict::Nondeterminism:
    return "nondeterminism";
  }
  return "match";
}

AuditShape vmib::decorrelatedAuditShape(const SweepSpec &Spec) {
  AuditShape S;
  // Every axis flips relative to the primary. Auto decode flips to
  // Stream (Auto materializes any trace that fits the budget, so
  // Stream is the opposite path in practice; a budget-exceeding trace
  // degenerates to a same-decode audit on that one axis while the
  // thread count still flips).
  S.Decode = Spec.Decode == TraceDecodeMode::Stream
                 ? TraceDecodeMode::Materialize
                 : TraceDecodeMode::Stream;
  S.Threads = resolveGangThreads(Spec.Threads) <= 1 ? 2 : 1;
  return S;
}

AuditShape vmib::canonicalAuditShape() { return AuditShape(); }

std::string vmib::auditShapeId(const AuditShape &S) {
  std::string Out = "decode:";
  Out += traceDecodeModeId(S.Decode);
  Out += ",threads:" + std::to_string(S.Threads);
  return Out;
}

std::vector<PerfCounters>
Auditor::replayShaped(const SweepSpec &Spec, size_t Workload,
                      const std::vector<size_t> &Members,
                      const AuditShape &Shape) {
  SweepSpec Shaped = Spec;
  Shaped.Decode = Shape.Decode;
  Shaped.Threads = Shape.Threads;
  // Direct replay: no store (the shape-free key would re-serve the
  // very value under audit), no fault injection (the flip draws are
  // keyed on the cell, so an injected primary fault would reproduce
  // and mask itself).
  return Executor.replayMembersDirect(Shaped, Workload, Members);
}

bool Auditor::storeKeyFor(const SweepSpec &Spec, size_t Workload,
                          size_t Member, StoreKey &Out) {
  if (!StoreRef || !StoreRef->isOpen())
    return false;
  const std::string &B = Spec.Benchmarks[Workload];
  uint64_t TraceHash = 0;
  if (!DispatchTrace::peekContentHash(
          DispatchTrace::cachePathFor(Spec.Suite + "-" + B), TraceHash))
    TraceHash = Spec.Suite == "java"
                    ? Executor.java().trace(B).contentHash()
                    : Executor.forth().trace(B).contentHash();
  Out = cellStoreKey(Spec, Member, TraceHash);
  return true;
}

void Auditor::auditSlice(const SweepSpec &Spec, size_t Workload,
                         size_t MemberBegin, size_t MemberEnd,
                         std::vector<PerfCounters> &Slice) {
  if (!Plan.enabled())
    return;
  std::vector<size_t> Sampled;
  for (size_t M = MemberBegin; M < MemberEnd; ++M)
    if (decideAudit(Plan, Spec, Workload, M))
      Sampled.push_back(M);
  if (Sampled.empty())
    return;

  AuditStats Local;
  Local.CellsAudited = Sampled.size();
  std::vector<PerfCounters> AuditVals =
      replayShaped(Spec, Workload, Sampled, decorrelatedAuditShape(Spec));

  std::vector<size_t> Mismatched; // indices into Sampled
  for (size_t K = 0; K < Sampled.size(); ++K)
    if (AuditVals[K] != Slice[Sampled[K] - MemberBegin])
      Mismatched.push_back(K);

  if (!Mismatched.empty()) {
    Local.Mismatches = Mismatched.size();
    std::vector<size_t> TieMembers;
    TieMembers.reserve(Mismatched.size());
    for (size_t K : Mismatched)
      TieMembers.push_back(Sampled[K]);
    std::vector<PerfCounters> TieVals =
        replayShaped(Spec, Workload, TieMembers, canonicalAuditShape());

    bool StoreDirty = false;
    for (size_t J = 0; J < Mismatched.size(); ++J) {
      size_t Member = TieMembers[J];
      PerfCounters &Primary = Slice[Member - MemberBegin];
      const PerfCounters &Audit = AuditVals[Mismatched[J]];
      const PerfCounters &Tie = TieVals[J];

      // The triage ladder (see header): the canonical tiebreak is the
      // authority whenever it confirms either side.
      AuditVerdict V;
      bool Repair = false;
      if (Tie == Audit) {
        // Primary proven wrong. The store is implicated iff it would
        // serve a value different from the authoritative one — covers
        // both a corrupt committed record and corruption injected at
        // serve time.
        StoreKey Key;
        bool Implicated = storeKeyFor(Spec, Workload, Member, Key) &&
                          StoreRef->quarantineCell(Key, Primary, Tie);
        if (Implicated) {
          V = AuditVerdict::StoreCorruption;
          ++Local.CellsQuarantined;
          StoreRef->record(Key, Tie);
          StoreDirty = true;
        } else {
          V = AuditVerdict::ComputeDivergence;
        }
        Repair = true;
      } else if (Tie == Primary) {
        // The audit shape diverged; the primary stands untouched.
        V = AuditVerdict::ComputeDivergence;
      } else {
        // Three shapes, three answers: the purity contract itself is
        // broken for this cell. Repair toward the canonical shape and
        // retire any store value none of the shapes produced.
        V = AuditVerdict::Nondeterminism;
        StoreKey Key;
        if (storeKeyFor(Spec, Workload, Member, Key) &&
            StoreRef->quarantineCell(Key, Primary, Tie)) {
          ++Local.CellsQuarantined;
          StoreRef->record(Key, Tie);
          StoreDirty = true;
        }
        Repair = true;
      }
      switch (V) {
      case AuditVerdict::StoreCorruption:
        ++Local.StoreCorruptions;
        break;
      case AuditVerdict::ComputeDivergence:
        ++Local.ComputeDivergences;
        break;
      case AuditVerdict::Nondeterminism:
        ++Local.Nondeterminism;
        break;
      case AuditVerdict::Match:
        break;
      }
      // Detail line: fingerprints, not raw counters — enough to match
      // evidence records and dedupe across shapes without 9 columns.
      std::printf("[audit] sweep=%s workload=%zu member=%zu verdict=%s "
                  "primary_fp=%016llx audit_fp=%016llx tiebreak_fp=%016llx\n",
                  Spec.Name.c_str(), Workload, Member, auditVerdictId(V),
                  static_cast<unsigned long long>(Primary.fingerprint()),
                  static_cast<unsigned long long>(Audit.fingerprint()),
                  static_cast<unsigned long long>(Tie.fingerprint()));
      if (Repair) {
        Primary = Tie;
        ++Local.CellsRequeued;
      }
    }
    if (StoreDirty && StoreRef)
      (void)StoreRef->flush(); // authoritative recomputes durable now
  }

  // Summary line with slice-local (summable) counters: what the
  // orchestrator aggregates from worker stdout into its report.
  std::printf("[audit] sweep=%s workload=%zu audited=%llu mismatches=%llu "
              "store_corruption=%llu compute_divergence=%llu "
              "nondeterminism=%llu quarantined=%llu requeued=%llu\n",
              Spec.Name.c_str(), Workload,
              static_cast<unsigned long long>(Local.CellsAudited),
              static_cast<unsigned long long>(Local.Mismatches),
              static_cast<unsigned long long>(Local.StoreCorruptions),
              static_cast<unsigned long long>(Local.ComputeDivergences),
              static_cast<unsigned long long>(Local.Nondeterminism),
              static_cast<unsigned long long>(Local.CellsQuarantined),
              static_cast<unsigned long long>(Local.CellsRequeued));
  Stats.merge(Local);
}
