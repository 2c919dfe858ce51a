//===- perfbench/selftest.cpp - Tests of the benchmark's own code ---------===//
//
// Part of the SPD3 reproduction (PLDI 2012).
//
// Checks the pieces the benchmark's numbers rest on:
//   - the order statistics return the right values on known inputs;
//   - Reservoir keeps a short stream whole and a uniform, bounded sample
//     of a long one;
//   - TimingTool counts the hook calls a known program makes;
//   - TimingTool is transparent: at one worker, seeded test-size programs
//     report the same race set and the same Statistic deltas with and
//     without it.
// Exit code 0 when every check passes.
//
//===----------------------------------------------------------------------===//

#include "Quantiles.h"
#include "TimingTool.h"

#include "AutoKernels.h"
#include "detector/Spd3Tool.h"
#include "detector/Tracked.h"
#include "kernels/Kernel.h"
#include "support/Stats.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

using namespace spd3;
using namespace spd3::perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const std::string &What) {
  if (Ok)
    return;
  ++Failures;
  std::fprintf(stderr, "FAIL: %s\n", What.c_str());
}

void expectNear(double Got, double Want, const std::string &What) {
  expect(std::fabs(Got - Want) <= 1e-12,
         What + ": got " + std::to_string(Got) + ", want " +
             std::to_string(Want));
}

std::vector<double> iota(size_t N) {
  std::vector<double> V(N);
  std::iota(V.begin(), V.end(), 1.0); // 1, 2, ..., N
  return V;
}

void testQuantiles() {
  expectNear(median({}), 0.0, "median of nothing");
  expectNear(median({3}), 3.0, "median of one");
  expectNear(median({5, 1, 3}), 3.0, "median of odd count");
  expectNear(median({4, 1, 3, 2}), 2.5, "median of even count");
  expectNear(median({2, 2, 9, 2}), 2.0, "median with ties");

  expectNear(percentile({}, 0.99), 0.0, "percentile of nothing");
  expectNear(percentile({7}, 0.99), 7.0, "p99 of one");
  expectNear(percentile(iota(100), 0.99), 99.0, "p99 of 1..100");
  expectNear(percentile(iota(100), 0.75), 75.0, "p75 of 1..100");
  expectNear(percentile(iota(1000), 0.99), 990.0, "p99 of 1..1000");
  expectNear(percentile(iota(40), 0.75), 30.0, "p75 of 1..40");
  expectNear(percentile(iota(4), 1.0), 4.0, "p100 is the maximum");
  expectNear(percentile({9, 1, 8, 2, 7, 3, 6, 4, 5, 10}, 0.5), 5.0,
             "percentile of unsorted input");

  expect(samplesBeyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  expect(samplesBeyond(999, 0.99) == 9, "9 samples beyond p99 of 999");
  expect(samplesBeyond(40, 0.75) == 10, "10 samples beyond p75 of 40");
  expect(samplesBeyond(0, 0.75) == 0, "no samples beyond in nothing");
}

void testReservoir() {
  Reservoir<double> Short(100, 1);
  for (double X : iota(50))
    Short.add(X);
  expect(Short.seen() == 50 && Short.items() == iota(50),
         "a stream within capacity is kept whole, in order");

  // 100K items into 1000 slots: each item is kept with probability 1/100,
  // so each half of the stream should supply about half of the sample.
  constexpr size_t Cap = 1000, N = 100000;
  Reservoir<double> Long(Cap, 1);
  for (double X : iota(N))
    Long.add(X);
  std::vector<double> S = Long.items();
  std::sort(S.begin(), S.end());
  expect(Long.seen() == N && S.size() == Cap, "a long stream is capped");
  expect(std::adjacent_find(S.begin(), S.end()) == S.end() &&
             S.front() >= 1 && S.back() <= N,
         "the sample holds distinct items of the stream");
  size_t FirstHalf = std::count_if(S.begin(), S.end(),
                                   [](double X) { return X <= N / 2; });
  expect(FirstHalf > 440 && FirstHalf < 560,
         "the sample is uniform over the stream: " +
             std::to_string(FirstHalf) + " of 1000 from its first half");
  size_t LastTenth = std::count_if(S.begin(), S.end(),
                                   [](double X) { return X > N - N / 10; });
  expect(LastTenth > 60 && LastTenth < 140,
         "late items are kept as often as early ones: " +
             std::to_string(LastTenth) + " of 1000 from the last tenth");
}

void testHookCounts() {
  detector::RaceSink Sink(detector::RaceSink::Mode::CollectPerLocation);
  detector::Spd3Tool Spd3(Sink);
  TimingTool Timer(Spd3);
  rt::Runtime RT({2, rt::SchedulerKind::Parallel, &Timer});
  RT.run([] {
    detector::TrackedArray<double> A(10);
    rt::finish([&] {
      rt::async([&] {
        for (size_t I = 0; I < 10; ++I)
          A.set(I, static_cast<double>(I));
      });
    });
    const double *P = A.readRun(0, 10);
    (void)P;
  });
  HookTotals H = Timer.totals();
  auto Calls = [&](Hook K) { return H.Calls[static_cast<unsigned>(K)]; };
  expect(Calls(Hook::Write) == 10, "ten scalar writes reach the tool");
  expect(Calls(Hook::Read) == 0, "no scalar reads");
  expect(Calls(Hook::ReadRange) == 1, "one range read");
  expect(H.Elems[static_cast<unsigned>(Hook::ReadRange)] == 10,
         "the range read covers ten elements");
  expect(Calls(Hook::RegisterRange) == 1 && Calls(Hook::UnregisterRange) == 1,
         "one registration and one unregistration");
  expect(Calls(Hook::TaskCreate) == 1, "one spawn");
  expect(Calls(Hook::TaskStart) == 2 && Calls(Hook::TaskEnd) == 2,
         "root and child start and end");
  expect(Calls(Hook::FinishStart) == 1 && Calls(Hook::FinishEnd) == 1,
         "one finish scope");
  expect(Calls(Hook::RunStart) == 1 && Calls(Hook::RunEnd) == 1,
         "one run");
  expect(H.calls(Layer::Scalar) == 10 && H.calls(Layer::Range) == 1 &&
             H.calls(Layer::Register) == 2 && H.calls(Layer::Dpst) == 9,
         "hooks are charged to their layers");
  expect(H.busyNs() > 0, "busy time is recorded");
  expect(Sink.raceCount() == 0, "the program is race free");
}

using KernelFn = std::function<kernels::KernelResult(
    rt::Runtime &, const kernels::KernelConfig &)>;

/// Race keys and every Statistic value after one seeded single-worker run.
struct Observation {
  bool Verified = false;
  std::vector<uint64_t> Keys;
  std::vector<std::pair<std::string, uint64_t>> Stats;
};

Observation observe(const KernelFn &Run, kernels::KernelConfig Cfg,
                    bool Reclaim, bool Wrapped) {
  detector::RaceSink Sink(detector::RaceSink::Mode::CollectPerLocation);
  detector::Spd3Options Opts;
  Opts.Reclaim = Reclaim;
  detector::Spd3Tool Spd3(Sink, Opts);
  // Built in both legs so the two allocate identically.
  TimingTool Timer(Spd3);
  detector::Tool *Tool = Wrapped ? static_cast<detector::Tool *>(&Timer)
                                 : static_cast<detector::Tool *>(&Spd3);
  rt::Runtime RT({1, rt::SchedulerKind::Parallel, Tool});
  stats::resetAll();
  Observation O;
  O.Verified = Run(RT, Cfg).Verified;
  O.Keys = Sink.stableKeys();
  for (const Statistic *S : stats::all())
    O.Stats.emplace_back(std::string(S->group()) + "." + S->name(),
                         S->value());
  return O;
}

/// Run observe() in a child process and send the result down \p Fd.
[[noreturn]] void observeInChild(int Fd, const KernelFn &Run,
                                 kernels::KernelConfig Cfg, bool Reclaim,
                                 bool Wrapped) {
  Observation Mine = observe(Run, Cfg, Reclaim, Wrapped);
  std::string Text =
      std::string("verified ") + (Mine.Verified ? "1" : "0") + "\n";
  for (uint64_t K : Mine.Keys)
    Text += "key " + std::to_string(K) + "\n";
  for (const auto &[Name, Value] : Mine.Stats)
    Text += "stat " + Name + " " + std::to_string(Value) + "\n";
  const char *P = Text.data();
  size_t Left = Text.size();
  while (Left) {
    ssize_t N = write(Fd, P, Left);
    if (N <= 0)
      _exit(1);
    P += N;
    Left -= static_cast<size_t>(N);
  }
  _exit(0);
}

Observation collect(int Fd, pid_t Child) {
  std::string Text;
  char Buf[4096];
  ssize_t N;
  while ((N = read(Fd, Buf, sizeof(Buf))) > 0)
    Text.append(Buf, static_cast<size_t>(N));
  close(Fd);
  int Status = 0;
  expect(Child > 0 && waitpid(Child, &Status, 0) == Child &&
             WIFEXITED(Status) && WEXITSTATUS(Status) == 0,
         "observing child exited cleanly");
  Observation O;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End == std::string::npos ? Text.size() : End + 1;
    size_t Sp = Line.find(' ');
    std::string Kind = Line.substr(0, Sp), Rest = Line.substr(Sp + 1);
    if (Kind == "verified") {
      O.Verified = Rest == "1";
    } else if (Kind == "key") {
      O.Keys.push_back(std::stoull(Rest));
    } else if (Kind == "stat") {
      size_t Sp2 = Rest.rfind(' ');
      O.Stats.emplace_back(Rest.substr(0, Sp2),
                           std::stoull(Rest.substr(Sp2 + 1)));
    }
  }
  return O;
}

/// observe() without and with the wrapper, each in a child forked from the
/// same parent state. The detector's caches are direct-mapped on address
/// bits, so cache and memo hit counts depend on where the heap places each
/// array; two children forked back to back start from one heap, and any
/// difference left between them is the wrapper's.
std::pair<Observation, Observation>
observePair(const KernelFn &Run, kernels::KernelConfig Cfg, bool Reclaim) {
  int Plain[2], Wrapped[2];
  if (pipe(Plain) != 0 || pipe(Wrapped) != 0) {
    expect(false, "pipe() failed");
    return {};
  }
  std::fflush(nullptr);
  pid_t PlainChild = fork();
  if (PlainChild == 0) {
    close(Plain[0]);
    close(Wrapped[0]);
    close(Wrapped[1]);
    observeInChild(Plain[1], Run, Cfg, Reclaim, /*Wrapped=*/false);
  }
  pid_t WrappedChild = fork();
  if (WrappedChild == 0) {
    close(Wrapped[0]);
    close(Plain[0]);
    close(Plain[1]);
    observeInChild(Wrapped[1], Run, Cfg, Reclaim, /*Wrapped=*/true);
  }
  close(Plain[1]);
  close(Wrapped[1]);
  Observation P = collect(Plain[0], PlainChild);
  Observation W = collect(Wrapped[0], WrappedChild);
  return {P, W};
}

void testTransparency() {
  struct Case {
    const char *Name;
    KernelFn Run;
    kernels::Variant Var;
    bool Reclaim;
  };
  auto FromKernel = [](const char *Name) -> KernelFn {
    kernels::Kernel *K = kernels::findKernel(Name);
    return [K](rt::Runtime &RT, const kernels::KernelConfig &Cfg) {
      return K->execute(RT, Cfg);
    };
  };
  const Case Cases[] = {
      {"matmul", FromKernel("matmul"), kernels::Variant::Chunked, false},
      {"strassen", FromKernel("strassen"), kernels::Variant::FineGrained,
       false},
      {"crypt-auto", &autokernels::cryptAuto, kernels::Variant::FineGrained,
       false},
      {"request_server", FromKernel("request_server"),
       kernels::Variant::FineGrained, true},
  };
  for (const Case &C : Cases) {
    kernels::KernelConfig Cfg;
    Cfg.Size = kernels::SizeClass::Test;
    Cfg.Var = C.Var;
    Cfg.Chunks = 4;
    Cfg.SeedRace = true;
    auto [Plain, Wrapped] = observePair(C.Run, Cfg, C.Reclaim);
    std::string Name = C.Name;
    expect(Plain.Verified && Wrapped.Verified, Name + ": results verify");
    expect(Plain.Keys.size() == 1, Name + ": the seeded race is reported");
    expect(Plain.Keys == Wrapped.Keys, Name + ": same race set when wrapped");
    expect(Plain.Stats.size() == Wrapped.Stats.size(),
           Name + ": same statistics registered");
    for (size_t I = 0; I < Plain.Stats.size() && I < Wrapped.Stats.size();
         ++I)
      expect(Plain.Stats[I] == Wrapped.Stats[I],
             Name + ": " + Plain.Stats[I].first + " is " +
                 std::to_string(Plain.Stats[I].second) + " plain but " +
                 std::to_string(Wrapped.Stats[I].second) + " wrapped");
  }
}

} // namespace

int main() {
  testQuantiles();
  testReservoir();
  testHookCounts();
  testTransparency();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
