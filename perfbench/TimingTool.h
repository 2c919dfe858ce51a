//===- perfbench/TimingTool.h - Hook-timing forwarding tool -----*- C++ -*-===//
//
// Part of the SPD3 reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A detector::Tool that forwards every hook to an inner tool and records,
/// per hook, how many calls it received, how many elements they covered and
/// how long the inner tool was busy in them. The benchmark's traced run
/// installs it around Spd3Tool to split a checked execution's cost across
/// the detector's layers from outside the library.
///
/// Accounting is per thread: each thread claims a cache-line-aligned slot
/// on its first hook call and only ever writes that slot, so the hot path
/// takes no shared atomic (one would add exactly the contention the scalar
/// workloads measure). totals() merges the slots once the run has ended.
///
//===----------------------------------------------------------------------===//

#ifndef SPD3_PERFBENCH_TIMINGTOOL_H
#define SPD3_PERFBENCH_TIMINGTOOL_H

#include "detector/Tool.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace spd3::perfbench {

/// Every hook of detector::Tool that the wrapper times.
enum class Hook : unsigned {
  RunStart,
  RunEnd,
  TaskCreate,
  TaskStart,
  TaskEnd,
  FinishStart,
  FinishEnd,
  Read,
  Write,
  ReadRange,
  WriteRange,
  RegisterRange,
  UnregisterRange,
  LockAcquire,
  LockRelease,
};
inline constexpr unsigned kNumHooks = 15;

/// The detector layer a hook's time is charged to, named after the
/// repository module that does the work.
enum class Layer : unsigned {
  Dpst,     ///< task and finish hooks: Spd3Tool builds the DPST here
  Scalar,   ///< onRead / onWrite: the scalar check path
  Range,    ///< onReadRange / onWriteRange: the batched range path
  Register, ///< onRegisterRange / onUnregisterRange: the shadow store
  Other,    ///< lock hooks (unused by SPD3)
};

const char *hookName(Hook H);
Layer layerOf(Hook H);

/// Merged per-hook accumulators.
struct HookTotals {
  uint64_t Calls[kNumHooks] = {};
  uint64_t Elems[kNumHooks] = {};
  uint64_t Ns[kNumHooks] = {};

  uint64_t calls(Layer L) const;
  uint64_t elems(Layer L) const;
  uint64_t ns(Layer L) const;
  /// Busy time summed over every hook and thread.
  uint64_t busyNs() const;
};

class TimingTool final : public detector::Tool {
public:
  /// \p Inner must outlive this tool. At most kMaxThreads distinct threads
  /// may call hooks on one instance.
  explicit TimingTool(detector::Tool &Inner);

  TimingTool(const TimingTool &) = delete;
  TimingTool &operator=(const TimingTool &) = delete;

  const char *name() const override { return Inner.name(); }

  void onRunStart(rt::Task &Root) override;
  void onRunEnd(rt::Task &Root) override;
  void onTaskCreate(rt::Task &Parent, rt::Task &Child) override;
  void onTaskStart(rt::Task &T) override;
  void onTaskEnd(rt::Task &T) override;
  void onFinishStart(rt::Task &T, rt::FinishRecord &F) override;
  void onFinishEnd(rt::Task &T, rt::FinishRecord &F) override;
  void onRead(rt::Task &T, const void *Addr, uint32_t Size) override;
  void onWrite(rt::Task &T, const void *Addr, uint32_t Size) override;
  void onReadRange(rt::Task &T, const void *Addr, size_t Count,
                   uint32_t ElemSize) override;
  void onWriteRange(rt::Task &T, const void *Addr, size_t Count,
                    uint32_t ElemSize) override;
  void onRegisterRange(const void *Base, size_t Count,
                       uint32_t ElemSize) override;
  void onUnregisterRange(const void *Base) override;
  void onLockAcquire(rt::Task &T, const void *Lock) override;
  void onLockRelease(rt::Task &T, const void *Lock) override;

  size_t memoryBytes() const override { return Inner.memoryBytes(); }
  size_t peakMemoryBytes() const override { return Inner.peakMemoryBytes(); }
  bool requiresSequential() const override {
    return Inner.requiresSequential();
  }

  /// Merge of every thread's accumulators. Call only once the run that
  /// used this tool has returned: Runtime::run joins its workers, which
  /// orders their slot writes before this read.
  HookTotals totals() const;

private:
  struct alignas(64) Slot {
    uint64_t Calls[kNumHooks] = {};
    uint64_t Elems[kNumHooks] = {};
    uint64_t Ns[kNumHooks] = {};
  };

  Slot &slot();

  template <typename Fn> void timed(Hook H, uint64_t Elems, Fn &&Call) {
    Slot &S = slot();
    auto T0 = std::chrono::steady_clock::now();
    Call();
    auto T1 = std::chrono::steady_clock::now();
    auto I = static_cast<unsigned>(H);
    ++S.Calls[I];
    S.Elems[I] += Elems;
    S.Ns[I] += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
            .count());
  }

  static constexpr unsigned kMaxThreads = 256;

  detector::Tool &Inner;
  /// Process-unique instance id; a thread's cached slot is trusted only
  /// for the instance that issued it (a later instance may reuse the
  /// address).
  const uint64_t Id;
  std::unique_ptr<Slot[]> Slots;
  /// Claimed once per thread, never on the per-event path.
  std::atomic<unsigned> NextSlot{0};
};

} // namespace spd3::perfbench

#endif // SPD3_PERFBENCH_TIMINGTOOL_H
