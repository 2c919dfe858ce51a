//===- perfbench/perfbench.cpp - SPD3 end-to-end and per-layer bench ------===//
//
// Part of the SPD3 reproduction (PLDI 2012).
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans PATH]
//        perfbench --workload NAME --seed N --setup-probe
//
// Runs one workload at W workers (nproc; serve: nproc - 1) for S seconds
// and prints, as its last stdout line, one JSON object {correct, attempted,
// failed, metrics, stamp}. --trace 0 measures the end-to-end metrics;
// --trace 1 interleaves uninstrumented, checked and traced executions and
// reports the per-layer metrics (and, with --spans, writes the recorded
// spans as JSON lines).
// --setup-probe times one set-up in this fresh process and prints it in
// milliseconds; the untraced run spawns itself that way to measure setup_s.
// README.md documents every metric; run.py is the entry point that builds
// this binary and checks its output against BENCHMARK.json.
//
//===----------------------------------------------------------------------===//

#include "Quantiles.h"
#include "TimingTool.h"
#include "Workloads.h"

#include "support/Numa.h"
#include "support/Simd.h"

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

using namespace spd3;
using namespace spd3::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Fresh processes whose set-up is timed per untraced run; setup_s is the
/// median.
constexpr int kSetupProbes = 31;
/// Requests in the seeded serve stream that proves the detector is live.
constexpr size_t kSeededRequests = 64;
/// Requests per serve stream in the traced run: long enough for several
/// epoch advances, short enough for many interleaved rounds.
constexpr size_t kTraceStreamRequests = 2048;
/// Untimed, verdict-checked work before timing starts. A host whose CPUs
/// were idle takes about a second to run all W spinning workers at once;
/// until then requests complete on the root worker alone, measurably
/// faster than with cross-worker steals, and the first timings read low.
constexpr double kWarmupSeconds = 2.0;
/// Serve's tail_ms percentile. One request in 64 runs the reclaimer's
/// epoch collect inline, so p99 falls on those requests, whose latency
/// moves between ~1.0 and ~2.0 ms for seconds at a time with the same
/// binary and input. p95 lies below them. The p99 is still printed, and
/// the collect's cost reaches ops_per_s through the mean latency.
constexpr double kServeTailP = 0.95;

Clock::time_point after(Clock::time_point T, double Seconds) {
  return T + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Seconds));
}

// The overrides the library reads. Each one swaps the program under test.
const char *const kRefusedEnv[] = {
    "SPD3_SAMPLING",  "SPD3_OVERHEAD_BUDGET", "SPD3_STEP_FILTER",
    "SPD3_SPLIT_GRANULES", "SPD3_SIMD",       "SPD3_NUMA",
    "SPD3_TRACE",     "SPD3_TRACE_RING",      "SPD3_TRACE_SAMPLE_US",
};

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
  std::string Spans;
  bool SetupProbe = false;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n"
               "       perfbench --workload NAME --seed N --setup-probe\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (Key == "--setup-probe") {
      O.SetupProbe = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + Key).c_str());
    const char *Val = Argv[++I];
    char *End = nullptr;
    if (Key == "--workload") {
      O.Workload = Val;
    } else if (Key == "--seed") {
      errno = 0;
      O.Seed = std::strtoull(Val, &End, 10);
      if (errno || End == Val || *End || Val[0] == '-')
        usage("--seed takes an unsigned integer");
      HaveSeed = true;
    } else if (Key == "--seconds") {
      O.Seconds = std::strtod(Val, &End);
      if (End == Val || *End || !(O.Seconds > 0.0 && O.Seconds <= 3600.0))
        usage("--seconds takes a number in (0, 3600]");
      HaveSeconds = true;
    } else if (Key == "--trace") {
      if (std::strcmp(Val, "0") != 0 && std::strcmp(Val, "1") != 0)
        usage("--trace takes 0 or 1");
      O.Trace = Val[0] == '1';
      HaveTrace = true;
    } else if (Key == "--spans") {
      O.Spans = Val;
    } else {
      usage(("unknown option " + Key).c_str());
    }
  }
  bool Known = false;
  for (const std::string &N : workloadNames())
    Known |= N == O.Workload;
  if (!Known)
    usage("--workload must be matmul-ranges, strassen-scalar, crypt-auto "
          "or serve");
  if (!HaveSeed || (!O.SetupProbe && (!HaveSeconds || !HaveTrace)))
    usage("--seed, --seconds and --trace are required");
  return O;
}

/// Refuse a build or environment that swaps the program being measured.
bool measurable() {
  bool Ok = true;
  for (const char *Var : kRefusedEnv)
    if (std::getenv(Var)) {
      std::fprintf(stderr, "perfbench: refusing to run: %s is set\n", Var);
      Ok = false;
    }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to run: assertions are on "
                       "(a Debug build)\n");
  Ok = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "perfbench: refusing to run: sanitizer build\n");
  Ok = false;
#endif
  std::string Type = PERFBENCH_BUILD_TYPE;
  if (Type != "Release" && Type != "RelWithDebInfo") {
    std::fprintf(stderr,
                 "perfbench: refusing to run: build type '%s' (need Release "
                 "or RelWithDebInfo)\n",
                 Type.c_str());
    Ok = false;
  }
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize")) {
    std::fprintf(stderr, "perfbench: refusing to run: sanitizer flags '%s'\n",
                 PERFBENCH_CXX_FLAGS);
    Ok = false;
  }
  return Ok;
}

unsigned nproc() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  int N = CPU_COUNT(&Set);
  return N > 0 ? static_cast<unsigned>(N) : 1u;
}

/// Workers for \p Workload. The batch workloads use every CPU. Serve
/// leaves one to the rest of the system: each request hands 64 tiny tasks
/// across workers and joins them, so with a spinning worker on every CPU
/// any other runnable thread preempts a worker that holds part of a
/// request, and the latencies measure the scheduler.
unsigned workersFor(const std::string &Workload) {
  unsigned N = nproc();
  return isBatch(Workload) || N == 1 ? N : N - 1;
}

std::string cpuModel() {
  std::FILE *F = std::fopen("/proc/cpuinfo", "r");
  if (!F)
    return "unknown";
  char Line[512];
  std::string Model = "unknown";
  while (std::fgets(Line, sizeof(Line), F)) {
    if (std::strncmp(Line, "model name", 10) != 0)
      continue;
    const char *Colon = std::strchr(Line, ':');
    if (Colon) {
      Model = Colon + 1;
      Model.erase(0, Model.find_first_not_of(" \t"));
      Model.erase(Model.find_last_not_of(" \t\r\n") + 1);
    }
    break;
  }
  std::fclose(F);
  return Model;
}

const char *compilerName() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double mb(size_t Bytes) {
  return static_cast<double>(Bytes) / (1024.0 * 1024.0);
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

/// The run's verdict tally and metrics, in output order.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;

  void attempt(bool Ok, const std::string &What, uint64_t N = 1) {
    Attempted += N;
    if (Ok)
      return;
    Failed += N;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
  }

  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back(Metric{Name, Value, Unit});
    std::printf("  %-32s %16.6f %s\n", Name.c_str(), Value, Unit);
  }
};

double sum(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return S;
}

void printSample(const char *What, const std::vector<double> &V,
                 const char *Unit, double TailP) {
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  if (S.empty())
    return;
  std::printf("%s: n=%zu min %.4f median %.4f p%.0f %.4f (%zu samples "
              "beyond) max %.4f %s\n",
              What, S.size(), S.front(), median(S), TailP * 100,
              percentile(S, TailP), samplesBeyond(S.size(), TailP), S.back(),
              Unit);
}

//===----------------------------------------------------------------------===//
// Per-layer metrics of one traced execution (or serve stream).
//===----------------------------------------------------------------------===//

struct TracedSample {
  double WallMs;
  unsigned Workers;
  HookTotals H;
  Counters C;
};

struct LayerMetric {
  const char *Name;
  const char *Unit;
  std::function<double(const TracedSample &)> Value;
};

double checkedElems(const TracedSample &S) {
  return static_cast<double>(S.C[Ctr::MemActions] + S.C[Ctr::RangeReuse]);
}

double busyMs(const TracedSample &S, Layer L) {
  return static_cast<double>(S.H.ns(L)) / 1e6;
}

double nsPerCall(const TracedSample &S, Layer L) {
  return ratio(static_cast<double>(S.H.ns(L)),
               static_cast<double>(S.H.calls(L)));
}

double count(const TracedSample &S, Ctr C) {
  return static_cast<double>(S.C[C]);
}

const std::vector<LayerMetric> &layerMetrics() {
  static const std::vector<LayerMetric> M = {
      {"runtime.tasks", "count",
       [](const TracedSample &S) { return count(S, Ctr::Tasks); }},
      {"runtime.steals", "count",
       [](const TracedSample &S) { return count(S, Ctr::Steals); }},
      {"runtime.outside_tool_ms", "ms",
       [](const TracedSample &S) {
         return S.WallMs -
                static_cast<double>(S.H.busyNs()) / 1e6 / S.Workers;
       }},
      {"dpst.task_hook_calls", "count",
       [](const TracedSample &S) {
         return static_cast<double>(S.H.calls(Layer::Dpst));
       }},
      {"dpst.task_hook_ns", "ns",
       [](const TracedSample &S) { return nsPerCall(S, Layer::Dpst); }},
      {"dpst.task_hook_ms", "ms",
       [](const TracedSample &S) { return busyMs(S, Layer::Dpst); }},
      {"dpst.dmhp_queries", "count",
       [](const TracedSample &S) { return count(S, Ctr::DmhpQueries); }},
      {"dpst.lca_hops", "count",
       [](const TracedSample &S) { return count(S, Ctr::LcaHops); }},
      {"detector.scalar_calls", "count",
       [](const TracedSample &S) {
         return static_cast<double>(S.H.calls(Layer::Scalar));
       }},
      {"detector.scalar_ns", "ns",
       [](const TracedSample &S) { return nsPerCall(S, Layer::Scalar); }},
      {"detector.scalar_ms", "ms",
       [](const TracedSample &S) { return busyMs(S, Layer::Scalar); }},
      {"detector.filter_hit_ratio", "ratio",
       [](const TracedSample &S) {
         double Hits = count(S, Ctr::StepFilterHits);
         return ratio(Hits,
                      Hits + static_cast<double>(S.H.calls(Layer::Scalar)));
       }},
      {"detector.checkcache_hit_ratio", "ratio",
       [](const TracedSample &S) {
         return ratio(count(S, Ctr::CheckCacheHits),
                      static_cast<double>(S.H.calls(Layer::Scalar)));
       }},
      {"detector.memo_hit_ratio", "ratio",
       [](const TracedSample &S) {
         double Hits = count(S, Ctr::MemoHits);
         return ratio(Hits, Hits + count(S, Ctr::DmhpQueries));
       }},
      {"detector.range_calls", "count",
       [](const TracedSample &S) {
         return static_cast<double>(S.H.calls(Layer::Range));
       }},
      {"detector.range_elems", "count",
       [](const TracedSample &S) {
         return static_cast<double>(S.H.elems(Layer::Range));
       }},
      {"detector.range_ns_per_elem", "ns",
       [](const TracedSample &S) {
         return ratio(static_cast<double>(S.H.ns(Layer::Range)),
                      static_cast<double>(S.H.elems(Layer::Range)));
       }},
      {"detector.range_ms", "ms",
       [](const TracedSample &S) { return busyMs(S, Layer::Range); }},
      {"detector.range_reuse_ratio", "ratio",
       [](const TracedSample &S) {
         return ratio(count(S, Ctr::RangeReuse), count(S, Ctr::RangeElems));
       }},
      {"detector.rangecache_hit_ratio", "ratio",
       [](const TracedSample &S) {
         return ratio(count(S, Ctr::RangeCacheHits),
                      static_cast<double>(S.H.calls(Layer::Range)));
       }},
      {"detector.mem_actions", "count",
       [](const TracedSample &S) { return count(S, Ctr::MemActions); }},
      {"detector.noupdate_ratio", "ratio",
       [](const TracedSample &S) {
         return ratio(count(S, Ctr::NoUpdate), checkedElems(S));
       }},
      {"detector.retry_ratio", "ratio",
       [](const TracedSample &S) {
         return ratio(count(S, Ctr::SnapshotRetries) +
                          count(S, Ctr::CasRetries),
                      checkedElems(S));
       }},
      {"detector.register_calls", "count",
       [](const TracedSample &S) {
         return static_cast<double>(S.H.calls(Layer::Register));
       }},
      {"detector.register_ns", "ns",
       [](const TracedSample &S) { return nsPerCall(S, Layer::Register); }},
      {"detector.split_granules", "count",
       [](const TracedSample &S) { return count(S, Ctr::SplitGranules); }},
      {"detector.shadow_cells", "count",
       [](const TracedSample &S) {
         return count(S, Ctr::RangeCells) + count(S, Ctr::PrimaryCells) +
                count(S, Ctr::FallbackCells);
       }},
      {"reclaim.subtrees_retired", "count",
       [](const TracedSample &S) { return count(S, Ctr::SubtreesRetired); }},
      {"reclaim.epoch_advances", "count",
       [](const TracedSample &S) { return count(S, Ctr::EpochAdvances); }},
      {"reclaim.freed_mb", "MB",
       [](const TracedSample &S) {
         return count(S, Ctr::FreedBytes) / (1024.0 * 1024.0);
       }},
      {"reclaim.nodes_compacted", "count",
       [](const TracedSample &S) { return count(S, Ctr::NodesCompacted); }},
  };
  return M;
}

/// Per-hook breakdown over all traced executions, and the wall-time
/// accounting the traced run must close.
void printHookTable(const std::vector<TracedSample> &Samples) {
  HookTotals All;
  double Wall = 0.0;
  for (const TracedSample &S : Samples) {
    for (unsigned H = 0; H < kNumHooks; ++H) {
      All.Calls[H] += S.H.Calls[H];
      All.Elems[H] += S.H.Elems[H];
      All.Ns[H] += S.H.Ns[H];
    }
    Wall += S.WallMs;
  }
  double N = static_cast<double>(Samples.size());
  double Busy = static_cast<double>(All.busyNs());
  std::printf("hook time over %zu traced executions (per execution):\n",
              Samples.size());
  std::printf("  %-18s %14s %14s %10s %8s\n", "hook", "calls", "elements",
              "ns/call", "share");
  for (unsigned H = 0; H < kNumHooks; ++H) {
    if (!All.Calls[H])
      continue;
    std::printf("  %-18s %14.0f %14.0f %10.1f %7.1f%%\n",
                hookName(static_cast<Hook>(H)),
                static_cast<double>(All.Calls[H]) / N,
                static_cast<double>(All.Elems[H]) / N,
                static_cast<double>(All.Ns[H]) /
                    static_cast<double>(All.Calls[H]),
                100.0 * ratio(static_cast<double>(All.Ns[H]), Busy));
  }
  unsigned W = Samples.empty() ? 1 : Samples.front().Workers;
  double BusyPerWorkerMs = Busy / 1e6 / W / N;
  double WallMs = Wall / N;
  std::printf("traced wall %.3f ms = hook busy / W %.3f ms + outside the "
              "tool %.3f ms (%.1f%% in hooks)\n",
              WallMs, BusyPerWorkerMs, WallMs - BusyPerWorkerMs,
              100.0 * ratio(BusyPerWorkerMs, WallMs));
}

void reportLayers(Report &Rep, const std::vector<TracedSample> &Samples,
                  double BaseMs, double CheckedMs, double TracedMs) {
  printHookTable(Samples);
  std::printf("per-layer metrics (median over %zu traced executions):\n",
              Samples.size());
  Rep.metric("runtime.base_ms", BaseMs, "ms");
  for (const LayerMetric &L : layerMetrics()) {
    std::vector<double> V;
    for (const TracedSample &S : Samples)
      V.push_back(L.Value(S));
    Rep.metric(L.Name, median(V), L.Unit);
  }
  Rep.metric("detector.slowdown", ratio(CheckedMs, BaseMs), "x");
  Rep.metric("trace.overhead", ratio(TracedMs, CheckedMs), "x");
}

//===----------------------------------------------------------------------===//
// Spans of the traced run, written as JSON lines at the end (--spans).
//===----------------------------------------------------------------------===//

struct SpanLog {
  std::string Text;

  void execution(const char *Mode, size_t Index, uint64_t StartNs,
                 double DurMs, const HookTotals *H) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"span\": \"execution\", \"mode\": \"%s\", \"index\": "
                  "%zu, \"start_ns\": %" PRIu64 ", \"dur_ns\": %.0f",
                  Mode, Index, StartNs, DurMs * 1e6);
    Text += Buf;
    if (H) {
      Text += ", \"hooks\": {";
      bool First = true;
      for (unsigned I = 0; I < kNumHooks; ++I) {
        if (!H->Calls[I])
          continue;
        std::snprintf(Buf, sizeof(Buf),
                      "%s\"%s\": {\"calls\": %" PRIu64 ", \"elems\": %" PRIu64
                      ", \"ns\": %" PRIu64 "}",
                      First ? "" : ", ", hookName(static_cast<Hook>(I)),
                      H->Calls[I], H->Elems[I], H->Ns[I]);
        Text += Buf;
        First = false;
      }
      Text += "}";
    }
    Text += "}\n";
  }

  void requests(size_t Stream, const StreamResult &R) {
    char Buf[160];
    for (size_t I = 0; I < R.LatUs.size(); ++I) {
      std::snprintf(Buf, sizeof(Buf),
                    "{\"span\": \"request\", \"stream\": %zu, \"req\": %zu, "
                    "\"start_ns\": %" PRIu64 ", \"dur_ns\": %.0f}\n",
                    Stream, I, R.StartNs + R.IssueNs[I], R.LatUs[I] * 1e3);
      Text += Buf;
    }
  }

  void write(const std::string &Path) const {
    if (Path.empty())
      return;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   Path.c_str());
      return;
    }
    std::fwrite(Text.data(), 1, Text.size(), F);
    std::fclose(F);
    std::printf("spans written to %s\n", Path.c_str());
  }
};

//===----------------------------------------------------------------------===//
// Set-up time.
//===----------------------------------------------------------------------===//

/// One set-up as a fresh process pays it: workload lookup (the first builds
/// the kernel registry), NUMA probing, detector and runtime construction,
/// and for serve the server start up to the first request.
double setupOnceMs(const Options &O, unsigned W) {
  if (isBatch(O.Workload))
    return batchSetupMs(O.Workload, O.Seed, W);
  return runStream(O.Seed, Mode::Checked, W, 0, 0.0, false).SetupMs;
}

/// Run this binary with --setup-probe and read back its set-up time; a
/// negative value when the probe could not run.
double probeSetupMs(const Options &O) {
  int Fd[2];
  if (pipe(Fd) != 0)
    return -1.0;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Fd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Fd[0]);
  posix_spawn_file_actions_addclose(&Actions, Fd[1]);
  std::string Seed = std::to_string(O.Seed);
  const char *Args[] = {"perfbench",   "--workload", O.Workload.c_str(),
                        "--seed",      Seed.c_str(), "--setup-probe",
                        nullptr};
  pid_t Child = -1;
  int Err = posix_spawn(&Child, "/proc/self/exe", &Actions, nullptr,
                        const_cast<char *const *>(Args), environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Fd[1]);
  std::string Out;
  char Buf[256];
  ssize_t N;
  while (Err == 0 && (N = read(Fd[0], Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  close(Fd[0]);
  int Status = 0;
  if (Err != 0 || waitpid(Child, &Status, 0) != Child ||
      !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return -1.0;
  char *End = nullptr;
  double Ms = std::strtod(Out.c_str(), &End);
  return End != Out.c_str() && Ms >= 0.0 ? Ms : -1.0;
}

/// setup_s: the median set-up of kSetupProbes fresh processes, spawned
/// after the timed phase so that host wake-up after idleness does not
/// reach them. A probe that fails counts as a failed verdict.
double setupSeconds(const Options &O, Report &Rep) {
  std::vector<double> Ms;
  for (int I = 0; I < kSetupProbes; ++I) {
    double T = probeSetupMs(O);
    Rep.attempt(T >= 0.0, "set-up probe process failed");
    if (T >= 0.0)
      Ms.push_back(T);
  }
  printSample("fresh-process set-ups", Ms, "ms", 0.75);
  return median(Ms) / 1e3;
}

//===----------------------------------------------------------------------===//
// Batch workloads.
//===----------------------------------------------------------------------===//

void benchBatch(const Options &O, unsigned W, Report &Rep) {
  BatchWorkload WL = makeBatchWorkload(O.Workload, O.Seed, W);

  // The verdict executions count toward the warm-up.
  Clock::time_point WarmupEnd = after(Clock::now(), kWarmupSeconds);
  // Verdict phase, untimed: the uninstrumented reference checksum (checked
  // against the kernel's own sequential reference), then one seeded
  // execution that must report exactly one race.
  ExecResult Ref = runBatch(WL, Mode::Base, W, /*SeedRace=*/false,
                            /*Verify=*/true);
  Rep.attempt(Ref.Res.Verified,
              "uninstrumented reference execution: " + Ref.Res.Error);
  ExecResult Live = runBatch(WL, Mode::Checked, W, /*SeedRace=*/true,
                             /*Verify=*/true);
  Rep.attempt(Live.Res.Verified && Live.Races == 1,
              "seeded execution reported " + std::to_string(Live.Races) +
                  " races (want 1) " + Live.Res.Error);
  auto Check = [&](const ExecResult &E, const char *What) {
    Rep.attempt(E.Res.Verified && E.Res.Checksum == Ref.Res.Checksum &&
                    E.Races == 0,
                std::string(What) + " execution: checksum or race mismatch (" +
                    std::to_string(E.Races) + " races)");
  };

  while (Clock::now() < WarmupEnd)
    Check(runBatch(WL, Mode::Checked, W, false, false), "warm-up");

  Clock::time_point Deadline = after(Clock::now(), O.Seconds);
  if (!O.Trace) {
    std::vector<double> Ms, PeakMb;
    do {
      ExecResult E = runBatch(WL, Mode::Checked, W, false, false);
      Check(E, "checked");
      Ms.push_back(E.WallMs);
      PeakMb.push_back(mb(E.PeakBytes));
    } while (Clock::now() < Deadline);
    printSample("checked executions", Ms, "ms", 0.75);
    double SetupS = setupSeconds(O, Rep);
    std::printf("end-to-end metrics:\n");
    Rep.metric("checked_ms", median(Ms), "ms");
    Rep.metric("tail_ms", percentile(Ms, 0.75), "ms");
    Rep.metric("ops_per_s", ratio(static_cast<double>(Ms.size()),
                                  sum(Ms) / 1e3),
               "1/s");
    Rep.metric("detector_mb", median(PeakMb), "MB");
    Rep.metric("rss_mb", peakRssMb(), "MB");
    Rep.metric("setup_s", SetupS, "s");
    return;
  }

  std::vector<double> BaseMs, CheckedMs, TracedMs;
  std::vector<TracedSample> Samples;
  SpanLog Spans;
  do {
    ExecResult B = runBatch(WL, Mode::Base, W, false, false);
    Check(B, "uninstrumented");
    ExecResult C = runBatch(WL, Mode::Checked, W, false, false);
    Check(C, "checked");
    ExecResult T = runBatch(WL, Mode::Traced, W, false, false);
    Check(T, "traced");
    size_t Round = BaseMs.size();
    Spans.execution("base", Round, B.StartNs, B.WallMs, nullptr);
    Spans.execution("checked", Round, C.StartNs, C.WallMs, nullptr);
    Spans.execution("traced", Round, T.StartNs, T.WallMs, &T.Hooks);
    BaseMs.push_back(B.WallMs);
    CheckedMs.push_back(C.WallMs);
    TracedMs.push_back(T.WallMs);
    Samples.push_back(TracedSample{T.WallMs, W, T.Hooks, T.Ctrs});
  } while (Clock::now() < Deadline);
  printSample("uninstrumented executions", BaseMs, "ms", 0.75);
  printSample("checked executions", CheckedMs, "ms", 0.75);
  printSample("traced executions", TracedMs, "ms", 0.75);
  reportLayers(Rep, Samples, median(BaseMs), median(CheckedMs),
               median(TracedMs));
  Spans.write(O.Spans);
}

//===----------------------------------------------------------------------===//
// Serve.
//===----------------------------------------------------------------------===//

/// Verdict of one stream: every request counts. A stream that reports a
/// race, or whose sessions end wrong, fails every request it served.
void checkStream(Report &Rep, const StreamResult &S, const char *What) {
  size_t N = S.Served;
  if (S.Races != 0 || !S.SessionsOk) {
    Rep.attempt(false,
                std::string(What) + " stream: " + std::to_string(S.Races) +
                    " races, sessions " + (S.SessionsOk ? "ok" : "wrong"),
                N);
    return;
  }
  Rep.attempt(true, "", N - S.FailedRequests);
  if (S.FailedRequests)
    Rep.attempt(false,
                std::string(What) + " stream: " +
                    std::to_string(S.FailedRequests) + " wrong responses",
                S.FailedRequests);
}

void benchServe(const Options &O, unsigned W, Report &Rep) {
  Clock::time_point WarmupStart = Clock::now();
  StreamResult Live =
      runStream(O.Seed, Mode::Checked, W, kSeededRequests, 3600.0, true);
  Rep.attempt(Live.Races == 1 && Live.SessionsOk && !Live.FailedRequests,
              "seeded stream reported " + std::to_string(Live.Races) +
                  " races (want 1)");
  double WarmupLeft =
      kWarmupSeconds -
      std::chrono::duration<double>(Clock::now() - WarmupStart).count();
  if (WarmupLeft > 0)
    checkStream(Rep,
                runStream(O.Seed, Mode::Checked, W,
                          std::numeric_limits<size_t>::max(), WarmupLeft,
                          false),
                "warm-up");

  if (!O.Trace) {
    StreamResult S = runStream(O.Seed, Mode::Checked, W,
                               std::numeric_limits<size_t>::max(), O.Seconds,
                               false);
    checkStream(Rep, S, "checked");
    std::printf("requests served: %zu; latencies of %zu of them kept (a "
                "uniform sample beyond %zu)\n",
                S.Served, S.LatUs.size(), kLatencySample);
    printSample("request latency", S.LatUs, "us", kServeTailP);
    printSample("request latency", S.LatUs, "us", 0.99);
    printSample("live detector footprint", S.FootprintMb, "MB", 0.99);
    double SetupS = setupSeconds(O, Rep);
    std::printf("end-to-end metrics:\n");
    Rep.metric("checked_ms", median(S.LatUs) / 1e3, "ms");
    Rep.metric("tail_ms", percentile(S.LatUs, kServeTailP) / 1e3, "ms");
    Rep.metric("ops_per_s",
               ratio(static_cast<double>(S.Served), S.ServeMs / 1e3),
               "1/s");
    Rep.metric("detector_mb", median(S.FootprintMb), "MB");
    Rep.metric("rss_mb", peakRssMb(), "MB");
    Rep.metric("setup_s", SetupS, "s");
    return;
  }

  std::vector<double> BaseUs, CheckedUs, TracedUs;
  std::vector<TracedSample> Samples;
  SpanLog Spans;
  auto Append = [](std::vector<double> &To, const std::vector<double> &From) {
    To.insert(To.end(), From.begin(), From.end());
  };
  Clock::time_point Deadline = after(Clock::now(), O.Seconds);
  do {
    size_t Round = Samples.size();
    StreamResult B = runStream(O.Seed, Mode::Base, W, kTraceStreamRequests,
                               3600.0, false);
    checkStream(Rep, B, "uninstrumented");
    StreamResult C = runStream(O.Seed, Mode::Checked, W, kTraceStreamRequests,
                               3600.0, false);
    checkStream(Rep, C, "checked");
    StreamResult T = runStream(O.Seed, Mode::Traced, W, kTraceStreamRequests,
                               3600.0, false);
    checkStream(Rep, T, "traced");
    Spans.execution("base", Round, B.StartNs, B.ServeMs, nullptr);
    Spans.execution("checked", Round, C.StartNs, C.ServeMs, nullptr);
    Spans.execution("traced", Round, T.StartNs, T.ServeMs, &T.Hooks);
    Spans.requests(Round, T);
    Append(BaseUs, B.LatUs);
    Append(CheckedUs, C.LatUs);
    Append(TracedUs, T.LatUs);
    Samples.push_back(TracedSample{T.ServeMs, W, T.Hooks, T.Ctrs});
  } while (Clock::now() < Deadline);
  printSample("uninstrumented request latency", BaseUs, "us", 0.99);
  printSample("checked request latency", CheckedUs, "us", 0.99);
  printSample("traced request latency", TracedUs, "us", 0.99);
  reportLayers(Rep, Samples, median(BaseUs) / 1e3, median(CheckedUs) / 1e3,
               median(TracedUs) / 1e3);
  Spans.write(O.Spans);
}

void printResult(const Options &O, unsigned W, const Report &Rep) {
  std::string Out = "{\"correct\": ";
  Out += Rep.Failed == 0 && Rep.Attempted > 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Rep.Attempted);
  Out += ", \"failed\": " + std::to_string(Rep.Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Rep.Metrics.size(); ++I) {
    const Report::Metric &M = Rep.Metrics[I];
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    Out += (I ? ", " : "") + jsonString(M.Name) + ": {\"value\": " + Buf +
           ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  Out += "}, \"stamp\": {";
  Out += "\"workload\": " + jsonString(O.Workload);
  Out += ", \"seed\": " + std::to_string(O.Seed);
  Out += ", \"trace\": " + std::to_string(O.Trace ? 1 : 0);
  Out += ", \"nproc\": " + std::to_string(nproc());
  Out += ", \"workers\": " + std::to_string(W);
  Out += ", \"cpu\": " + jsonString(cpuModel());
  Out += ", \"compiler\": " + jsonString(compilerName());
  Out += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
  Out += ", \"cxx_flags\": " + jsonString(PERFBENCH_CXX_FLAGS);
  Out += ", \"simd\": " + jsonString(simd::backendName(simd::backend()));
  Out += ", \"numa_nodes\": " + std::to_string(numa::nodeCount());
  Out += ", \"numa_mode\": " + jsonString(numa::modeString());
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  if (!measurable())
    return 2;
  unsigned W = workersFor(O.Workload);
  if (O.SetupProbe) {
    std::printf("%.17g\n", setupOnceMs(O, W));
    return 0;
  }
  std::printf("perfbench: workload %s, seed %" PRIu64 ", %u workers, %.1f s, "
              "%s run\n",
              O.Workload.c_str(), O.Seed, W, O.Seconds,
              O.Trace ? "traced" : "untraced");
  Report Rep;
  if (isBatch(O.Workload))
    benchBatch(O, W, Rep);
  else
    benchServe(O, W, Rep);
  std::printf("verdicts: %" PRIu64 " attempted, %" PRIu64
              " failed, failed_frac %.6f\n",
              Rep.Attempted, Rep.Failed,
              ratio(static_cast<double>(Rep.Failed),
                    static_cast<double>(Rep.Attempted)));
  std::fflush(stdout);
  printResult(O, W, Rep);
  return 0;
}
