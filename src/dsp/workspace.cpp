#include "dsp/workspace.h"

#include <algorithm>
#include <atomic>

#include "obs/instrument.h"

namespace wearlock::dsp {
namespace {

// Cross-thread total of slot growths. The thread_local arenas all feed
// this one counter so a sweep can assert zero steady-state regrowth.
std::atomic<std::uint64_t> g_total_growths{0};

}  // namespace

template <typename Vec>
Vec& Workspace::Sized(Vec& v, std::size_t n) {
  const std::size_t before = v.capacity();
  if (n > before) {
    v.reserve(n);
    bytes_ += (v.capacity() - before) * sizeof(typename Vec::value_type);
    g_total_growths.fetch_add(1, std::memory_order_relaxed);
    WL_GAUGE_SET("dsp.workspace.bytes", static_cast<double>(bytes_));
  }
  v.resize(n);
  return v;
}

ComplexVec& Workspace::ComplexBuf(CSlot slot, std::size_t n) {
  return Sized(complex_[static_cast<std::size_t>(slot)], n);
}

RealVec& Workspace::RealBuf(RSlot slot, std::size_t n) {
  return Sized(real_[static_cast<std::size_t>(slot)], n);
}

ComplexVec& Workspace::ComplexZeroed(CSlot slot, std::size_t n) {
  ComplexVec& v = ComplexBuf(slot, n);
  std::fill(v.begin(), v.end(), Complex(0.0, 0.0));
  return v;
}

RealVec& Workspace::RealZeroed(RSlot slot, std::size_t n) {
  RealVec& v = RealBuf(slot, n);
  std::fill(v.begin(), v.end(), 0.0);
  return v;
}

std::span<double> Workspace::RealScratch(RSlot slot, std::size_t n) {
  RealVec& v = real_[static_cast<std::size_t>(slot)];
  if (v.size() < n) Sized(v, n);
  return {v.data(), n};
}

Workspace& Workspace::PerThread() {
  thread_local Workspace ws;
  return ws;
}

std::uint64_t Workspace::TotalGrowths() {
  return g_total_growths.load(std::memory_order_relaxed);
}

}  // namespace wearlock::dsp
