//===- perfbench/Workloads.h - Benchmark workloads and executions -*- C++ -*-===//
//
// Part of the SPD3 reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads of the benchmark and one execution of each under a
/// chosen instrumentation mode. Three are batch kernels reused from the
/// repository (kernels::findKernel, autokernels::cryptAuto); `serve` is a
/// closed-loop stream of request_server-shaped requests inside one
/// Runtime::run under service mode. README.md says why each was chosen.
///
//===----------------------------------------------------------------------===//

#ifndef SPD3_PERFBENCH_WORKLOADS_H
#define SPD3_PERFBENCH_WORKLOADS_H

#include "TimingTool.h"

#include "kernels/Kernel.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace spd3::perfbench {

/// What an execution runs under.
enum class Mode {
  Base,    ///< no tool installed (the paper's HJ-Base)
  Checked, ///< a fresh Spd3Tool
  Traced,  ///< a fresh Spd3Tool behind a TimingTool, with counter deltas
};

/// Statistic-registry counters read around each traced execution.
enum class Ctr : unsigned {
  Tasks,
  Steals,
  MemActions,
  SnapshotRetries,
  CasRetries,
  CheckCacheHits,
  NoUpdate,
  MemoHits,
  RangeElems,
  RangeReuse,
  RangeCacheHits,
  StepFilterHits,
  DmhpQueries,
  LcaHops,
  SplitGranules,
  RangeCells,
  PrimaryCells,
  FallbackCells,
  SubtreesRetired,
  EpochAdvances,
  FreedBytes,
  NodesCompacted,
};
inline constexpr unsigned kNumCtrs = 22;

struct Counters {
  uint64_t V[kNumCtrs] = {};
  uint64_t operator[](Ctr C) const { return V[static_cast<unsigned>(C)]; }
};

/// Zero every registered Statistic (the start of a traced execution).
void resetCounters();
/// Read the counters; aborts when the library no longer has one of them.
Counters readCounters();

/// A batch workload: a kernel entry point and its configuration.
struct BatchWorkload {
  std::function<kernels::KernelResult(rt::Runtime &,
                                      const kernels::KernelConfig &)>
      Run;
  kernels::KernelConfig Cfg;
};

/// Names of the workloads, batch ones first; "serve" is last.
const std::vector<std::string> &workloadNames();
bool isBatch(const std::string &Name);

/// Look up batch workload \p Name at \p Seed for \p Workers workers.
BatchWorkload makeBatchWorkload(const std::string &Name, uint64_t Seed,
                                unsigned Workers);

/// One batch execution. WallMs covers the kernel run and collecting its
/// verdict; tool and runtime construction happen before it.
struct ExecResult {
  double WallMs = 0.0;
  uint64_t StartNs = 0; ///< span start, ns since the process clock origin
  kernels::KernelResult Res;
  size_t Races = 0;
  size_t PeakBytes = 0;
  HookTotals Hooks; ///< Traced only.
  Counters Ctrs;    ///< Traced only.
};

ExecResult runBatch(const BatchWorkload &WL, Mode M, unsigned Workers,
                    bool SeedRace, bool Verify);

/// Set-up of one batch execution: workload lookup, Spd3Tool and Runtime
/// construction. Returns milliseconds.
double batchSetupMs(const std::string &Name, uint64_t Seed, unsigned Workers);

/// One serve stream: a fresh Spd3Tool in service mode (none in Base mode)
/// and one Runtime::run whose root task issues requests back to back until
/// \p MaxRequests were served or \p MaxSeconds have passed.
struct StreamResult {
  double SetupMs = 0.0;     ///< construction up to the first request issue
  double ServeMs = 0.0;     ///< first request issue to last request return
  uint64_t StartNs = 0;     ///< first request issue, ns since clock origin
  size_t Served = 0;        ///< requests served
  /// Issue to return, and issue in ns since StartNs, of every request while
  /// Served <= kLatencySample, in order; else of a uniform sample of
  /// kLatencySample of them.
  std::vector<double> LatUs;
  std::vector<uint64_t> IssueNs;
  size_t FailedRequests = 0; ///< wrong response sums
  bool SessionsOk = false;   ///< final session state matches the reference
  size_t Races = 0;
  /// Live detector footprint, sampled every kFootprintSampleEvery requests.
  std::vector<double> FootprintMb;
  HookTotals Hooks; ///< Traced only.
  Counters Ctrs;    ///< Traced only.
};

/// Requests between two samples of the live detector footprint.
inline constexpr size_t kFootprintSampleEvery = 64;

/// Requests whose latency a stream keeps. Keeping every one (16 bytes a
/// request, hundreds of thousands a run) would make the process's peak
/// RSS, and with it serve's rss_mb, grow with throughput.
inline constexpr size_t kLatencySample = size_t{1} << 16;

StreamResult runStream(uint64_t Seed, Mode M, unsigned Workers,
                       size_t MaxRequests, double MaxSeconds, bool SeedRace);

} // namespace spd3::perfbench

#endif // SPD3_PERFBENCH_WORKLOADS_H
