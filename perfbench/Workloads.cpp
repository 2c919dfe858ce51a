//===- perfbench/Workloads.cpp - Benchmark workloads and executions -------===//

#include "Workloads.h"

#include "Quantiles.h"

#include "AutoKernels.h"
#include "detector/Spd3Tool.h"
#include "detector/Tracked.h"
#include "support/Compiler.h"
#include "support/MonotonicClock.h"
#include "support/Stats.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

namespace spd3::perfbench {

using Clock = std::chrono::steady_clock;

namespace {

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

struct CounterName {
  const char *Group;
  const char *Name;
};

const CounterName kCounterNames[kNumCtrs] = {
    {"runtime", "tasksSpawned"},   {"runtime", "steals"},
    {"spd3", "memActions"},        {"spd3", "snapshotRetries"},
    {"spd3", "casRetries"},        {"spd3", "checkCacheHits"},
    {"spd3", "noUpdateActions"},   {"spd3", "dmhpMemoHits"},
    {"spd3", "rangeElems"},        {"spd3", "rangeComputeReuse"},
    {"spd3", "rangeCacheHits"},    {"spd3", "stepFilterHits"},
    {"dpst", "dmhpQueries"},       {"dpst", "lcaHops"},
    {"shadow", "splitGranules"},   {"shadow", "rangeCells"},
    {"shadow", "primaryCells"},    {"shadow", "fallbackCells"},
    {"reclaim", "subtreesRetired"}, {"reclaim", "epochAdvances"},
    {"reclaim", "freedBytes"},     {"reclaim", "nodesCompacted"},
};

/// The detector under test in a checked or traced execution, and the tool
/// the runtime sees (the TimingTool in front of it when traced).
struct ToolStack {
  std::unique_ptr<detector::Spd3Tool> Spd3;
  std::unique_ptr<TimingTool> Timer;

  ToolStack(Mode M, detector::RaceSink &Sink, detector::Spd3Options Opts) {
    if (M == Mode::Base)
      return;
    Spd3 = std::make_unique<detector::Spd3Tool>(Sink, Opts);
    if (M == Mode::Traced)
      Timer = std::make_unique<TimingTool>(*Spd3);
  }

  detector::Tool *tool() const {
    if (Timer)
      return Timer.get();
    return Spd3.get();
  }
};

// The serve request shape of the request_server kernel: a 64-element
// scratch array per request, one async per element, a range read-back and
// an update of one of 16 sessions.
constexpr size_t kScratchItems = 64;
constexpr size_t kSessions = 16;

uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

double payload(uint64_t Seed, size_t Req, size_t Item) {
  return static_cast<double>(mix(Seed ^ mix(Req * kScratchItems + Item)) %
                             97) *
         1e-3;
}

size_t sessionOf(uint64_t Seed, size_t Req) {
  return mix(Seed + Req) % kSessions;
}

/// The response a correct server returns for request \p Req.
double expectedSum(uint64_t Seed, size_t Req) {
  double Sum = 0.0;
  for (size_t I = 0; I < kScratchItems; ++I)
    Sum += payload(Seed, Req, I);
  return Sum;
}

double serveRequest(uint64_t Seed, size_t Req,
                    detector::TrackedArray<double> &Sessions,
                    detector::TrackedVar<double> *RaceCell) {
  detector::TrackedArray<double> Scratch(kScratchItems);
  rt::parallelFor(0, kScratchItems, [&](size_t I) {
    Scratch.set(I, payload(Seed, Req, I));
    if (RaceCell && (I == 0 || I == kScratchItems - 1))
      kernels::detail::seedRaceWrite(*RaceCell, I);
  });
  const double *Resp = Scratch.readRun(0, kScratchItems);
  double Sum = 0.0;
  for (size_t I = 0; I < kScratchItems; ++I)
    Sum += Resp[I];
  size_t S = sessionOf(Seed, Req);
  Sessions.set(S, Sessions.get(S) + Sum);
  return Sum;
}

} // namespace

void resetCounters() { stats::resetAll(); }

Counters readCounters() {
  static const std::vector<Statistic *> Stats = [] {
    std::vector<Statistic *> Out;
    for (const CounterName &N : kCounterNames) {
      Statistic *S = stats::lookup(N.Group, N.Name);
      if (!S) {
        std::fprintf(stderr, "perfbench: no statistic %s.%s\n", N.Group,
                     N.Name);
        fatal("perfbench: a counter the benchmark reads is missing");
      }
      Out.push_back(S);
    }
    return Out;
  }();
  Counters C;
  for (unsigned I = 0; I < kNumCtrs; ++I)
    C.V[I] = Stats[I]->value();
  return C;
}

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "matmul-ranges", "strassen-scalar", "crypt-auto", "serve"};
  return Names;
}

bool isBatch(const std::string &Name) { return Name != "serve"; }

BatchWorkload makeBatchWorkload(const std::string &Name, uint64_t Seed,
                                unsigned Workers) {
  BatchWorkload WL;
  WL.Cfg.Seed = Seed;
  WL.Cfg.Verify = false;
  auto FromKernel = [](const char *KName) {
    kernels::Kernel *K = kernels::findKernel(KName);
    SPD3_CHECK(K, "perfbench: kernel missing from the registry");
    return [K](rt::Runtime &RT, const kernels::KernelConfig &Cfg) {
      return K->execute(RT, Cfg);
    };
  };
  if (Name == "matmul-ranges") {
    WL.Run = FromKernel("matmul");
    WL.Cfg.Size = kernels::SizeClass::Large;
    WL.Cfg.Var = kernels::Variant::Chunked;
    WL.Cfg.Chunks = Workers;
  } else if (Name == "strassen-scalar") {
    WL.Run = FromKernel("strassen");
    WL.Cfg.Size = kernels::SizeClass::Default;
    WL.Cfg.Var = kernels::Variant::FineGrained;
  } else if (Name == "crypt-auto") {
    WL.Run = &autokernels::cryptAuto;
    WL.Cfg.Size = kernels::SizeClass::Large;
    WL.Cfg.Var = kernels::Variant::FineGrained;
  } else {
    fatal("perfbench: not a batch workload");
  }
  return WL;
}

ExecResult runBatch(const BatchWorkload &WL, Mode M, unsigned Workers,
                    bool SeedRace, bool Verify) {
  ExecResult R;
  detector::RaceSink Sink(detector::RaceSink::Mode::CollectPerLocation);
  ToolStack Tools(M, Sink, detector::Spd3Options{});
  rt::Runtime RT({Workers, rt::SchedulerKind::Parallel, Tools.tool()});
  kernels::KernelConfig Cfg = WL.Cfg;
  Cfg.SeedRace = SeedRace;
  Cfg.Verify = Verify;
  if (M == Mode::Traced)
    resetCounters();
  R.StartNs = monotonicNanos();
  Clock::time_point T0 = Clock::now();
  R.Res = WL.Run(RT, Cfg);
  R.Races = Sink.raceCount();
  R.WallMs = msBetween(T0, Clock::now());
  if (Tools.Spd3)
    R.PeakBytes = Tools.Spd3->peakMemoryBytes();
  if (Tools.Timer) {
    R.Hooks = Tools.Timer->totals();
    R.Ctrs = readCounters();
  }
  return R;
}

double batchSetupMs(const std::string &Name, uint64_t Seed,
                    unsigned Workers) {
  Clock::time_point T0 = Clock::now();
  BatchWorkload WL = makeBatchWorkload(Name, Seed, Workers);
  detector::RaceSink Sink(detector::RaceSink::Mode::CollectPerLocation);
  detector::Spd3Tool Tool(Sink);
  rt::Runtime RT({Workers, rt::SchedulerKind::Parallel, &Tool});
  return msBetween(T0, Clock::now());
}

StreamResult runStream(uint64_t Seed, Mode M, unsigned Workers,
                       size_t MaxRequests, double MaxSeconds, bool SeedRace) {
  StreamResult R;
  Clock::time_point T0 = Clock::now();
  detector::RaceSink Sink(detector::RaceSink::Mode::CollectPerLocation);
  detector::Spd3Options Opts;
  Opts.Reclaim = true;
  ToolStack Tools(M, Sink, Opts);
  rt::Runtime RT({Workers, rt::SchedulerKind::Parallel, Tools.tool()});
  if (M == Mode::Traced)
    resetCounters();
  std::vector<double> Expected(kSessions, 0.0);
  std::vector<double> Got(kSessions, 0.0);
  Reservoir<std::pair<double, uint64_t>> Sample(kLatencySample, Seed);
  RT.run([&] {
    detector::TrackedArray<double> Sessions(kSessions);
    detector::TrackedVar<double> RaceCell(0.0);
    for (size_t S = 0; S < kSessions; ++S)
      Sessions.set(S, 0.0);
    Clock::time_point Ready = Clock::now();
    R.SetupMs = msBetween(T0, Ready);
    R.StartNs = monotonicNanos();
    auto Deadline = Ready + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(MaxSeconds));
    Clock::time_point Last = Ready;
    for (size_t Req = 0; Req < MaxRequests; ++Req) {
      Clock::time_point Issue = Clock::now();
      if (Req > 0 && Issue >= Deadline)
        break;
      double Sum = serveRequest(Seed, Req, Sessions,
                                SeedRace && Req == 0 ? &RaceCell : nullptr);
      Last = Clock::now();
      Sample.add(
          {std::chrono::duration<double, std::micro>(Last - Issue).count(),
           static_cast<uint64_t>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(Issue -
                                                                    Ready)
                   .count())});
      double Want = expectedSum(Seed, Req);
      if (Sum != Want)
        ++R.FailedRequests;
      Expected[sessionOf(Seed, Req)] += Want;
      if (Tools.Spd3 && Req % kFootprintSampleEvery == 0)
        R.FootprintMb.push_back(
            static_cast<double>(Tools.Spd3->memoryBytes()) / (1 << 20));
    }
    R.ServeMs = msBetween(Ready, Last);
    const double *Acc = Sessions.readRun(0, kSessions);
    std::copy(Acc, Acc + kSessions, Got.begin());
  });
  R.Races = Sink.raceCount();
  R.SessionsOk = Got == Expected;
  R.Served = Sample.seen();
  for (const auto &[Lat, IssueNs] : Sample.items()) {
    R.LatUs.push_back(Lat);
    R.IssueNs.push_back(IssueNs);
  }
  if (Tools.Timer) {
    R.Hooks = Tools.Timer->totals();
    R.Ctrs = readCounters();
  }
  return R;
}

} // namespace spd3::perfbench
