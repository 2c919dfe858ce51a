//===- perfbench/TimingTool.cpp - Hook-timing forwarding tool -------------===//

#include "TimingTool.h"

#include "support/Compiler.h"

#include <algorithm>

namespace spd3::perfbench {

const char *hookName(Hook H) {
  static const char *const Names[kNumHooks] = {
      "onRunStart",      "onRunEnd",         "onTaskCreate",
      "onTaskStart",     "onTaskEnd",        "onFinishStart",
      "onFinishEnd",     "onRead",           "onWrite",
      "onReadRange",     "onWriteRange",     "onRegisterRange",
      "onUnregisterRange", "onLockAcquire",  "onLockRelease",
  };
  return Names[static_cast<unsigned>(H)];
}

Layer layerOf(Hook H) {
  switch (H) {
  case Hook::Read:
  case Hook::Write:
    return Layer::Scalar;
  case Hook::ReadRange:
  case Hook::WriteRange:
    return Layer::Range;
  case Hook::RegisterRange:
  case Hook::UnregisterRange:
    return Layer::Register;
  case Hook::LockAcquire:
  case Hook::LockRelease:
    return Layer::Other;
  default:
    return Layer::Dpst;
  }
}

namespace {

template <typename Array>
uint64_t sumLayer(const Array &A, Layer L) {
  uint64_t Sum = 0;
  for (unsigned I = 0; I < kNumHooks; ++I)
    if (layerOf(static_cast<Hook>(I)) == L)
      Sum += A[I];
  return Sum;
}

struct ThreadCache {
  uint64_t Id = 0;
  void *S = nullptr;
};
thread_local ThreadCache TheThreadCache;

uint64_t nextId() {
  static std::atomic<uint64_t> Counter{1};
  return Counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

uint64_t HookTotals::calls(Layer L) const { return sumLayer(Calls, L); }
uint64_t HookTotals::elems(Layer L) const { return sumLayer(Elems, L); }
uint64_t HookTotals::ns(Layer L) const { return sumLayer(Ns, L); }

uint64_t HookTotals::busyNs() const {
  uint64_t Sum = 0;
  for (uint64_t V : Ns)
    Sum += V;
  return Sum;
}

TimingTool::TimingTool(detector::Tool &Inner)
    : Inner(Inner), Id(nextId()), Slots(new Slot[kMaxThreads]) {}

TimingTool::Slot &TimingTool::slot() {
  ThreadCache &TC = TheThreadCache;
  if (SPD3_LIKELY(TC.Id == Id))
    return *static_cast<Slot *>(TC.S);
  unsigned I = NextSlot.fetch_add(1, std::memory_order_relaxed);
  SPD3_CHECK(I < kMaxThreads, "TimingTool: more threads than slots");
  TC.Id = Id;
  TC.S = &Slots[I];
  return Slots[I];
}

HookTotals TimingTool::totals() const {
  HookTotals T;
  unsigned Used =
      std::min(NextSlot.load(std::memory_order_acquire), kMaxThreads);
  for (unsigned S = 0; S < Used; ++S)
    for (unsigned H = 0; H < kNumHooks; ++H) {
      T.Calls[H] += Slots[S].Calls[H];
      T.Elems[H] += Slots[S].Elems[H];
      T.Ns[H] += Slots[S].Ns[H];
    }
  return T;
}

void TimingTool::onRunStart(rt::Task &Root) {
  timed(Hook::RunStart, 0, [&] { Inner.onRunStart(Root); });
}

void TimingTool::onRunEnd(rt::Task &Root) {
  timed(Hook::RunEnd, 0, [&] { Inner.onRunEnd(Root); });
}

void TimingTool::onTaskCreate(rt::Task &Parent, rt::Task &Child) {
  timed(Hook::TaskCreate, 0, [&] { Inner.onTaskCreate(Parent, Child); });
}

void TimingTool::onTaskStart(rt::Task &T) {
  timed(Hook::TaskStart, 0, [&] { Inner.onTaskStart(T); });
}

void TimingTool::onTaskEnd(rt::Task &T) {
  timed(Hook::TaskEnd, 0, [&] { Inner.onTaskEnd(T); });
}

void TimingTool::onFinishStart(rt::Task &T, rt::FinishRecord &F) {
  timed(Hook::FinishStart, 0, [&] { Inner.onFinishStart(T, F); });
}

void TimingTool::onFinishEnd(rt::Task &T, rt::FinishRecord &F) {
  timed(Hook::FinishEnd, 0, [&] { Inner.onFinishEnd(T, F); });
}

void TimingTool::onRead(rt::Task &T, const void *Addr, uint32_t Size) {
  timed(Hook::Read, 1, [&] { Inner.onRead(T, Addr, Size); });
}

void TimingTool::onWrite(rt::Task &T, const void *Addr, uint32_t Size) {
  timed(Hook::Write, 1, [&] { Inner.onWrite(T, Addr, Size); });
}

void TimingTool::onReadRange(rt::Task &T, const void *Addr, size_t Count,
                             uint32_t ElemSize) {
  timed(Hook::ReadRange, Count,
        [&] { Inner.onReadRange(T, Addr, Count, ElemSize); });
}

void TimingTool::onWriteRange(rt::Task &T, const void *Addr, size_t Count,
                              uint32_t ElemSize) {
  timed(Hook::WriteRange, Count,
        [&] { Inner.onWriteRange(T, Addr, Count, ElemSize); });
}

void TimingTool::onRegisterRange(const void *Base, size_t Count,
                                 uint32_t ElemSize) {
  timed(Hook::RegisterRange, Count,
        [&] { Inner.onRegisterRange(Base, Count, ElemSize); });
}

void TimingTool::onUnregisterRange(const void *Base) {
  timed(Hook::UnregisterRange, 0, [&] { Inner.onUnregisterRange(Base); });
}

void TimingTool::onLockAcquire(rt::Task &T, const void *Lock) {
  timed(Hook::LockAcquire, 0, [&] { Inner.onLockAcquire(T, Lock); });
}

void TimingTool::onLockRelease(rt::Task &T, const void *Lock) {
  timed(Hook::LockRelease, 0, [&] { Inner.onLockRelease(T, Lock); });
}

} // namespace spd3::perfbench
