// Slot-wise arithmetic over any counter struct with a for_each_counter
// field list (common/counters.hpp), shared by the sampler windows and the
// profiler's region cells. Kept as free functions instead of operators on
// the sim structs so the hot simulator headers stay arithmetic-free.
#pragma once

#include "common/counters.hpp"
#include "mem/memory.hpp"
#include "sim/core.hpp"

namespace xpulp::obs {

/// a - b, slot by slot.
template <CounterStruct S>
S diff(const S& a, const S& b) {
  S d;
  for_each_counter(
      [](const char*, auto& o, const auto& x, const auto& y) { o = x - y; },
      d, a, b);
  return d;
}

/// a += d, slot by slot.
template <CounterStruct S>
void accumulate(S& a, const S& d) {
  for_each_counter([](const char*, auto& o, const auto& x) { o += x; }, a, d);
}

/// Name of the first slot (in field-list order) where `a` and `b` differ,
/// or nullptr when they are equal.
template <CounterStruct S>
const char* first_difference(const S& a, const S& b) {
  const char* first = nullptr;
  for_each_counter(
      [&first](const char* name, const auto& x, const auto& y) {
        if (first == nullptr && x != y) first = name;
      },
      a, b);
  return first;
}

}  // namespace xpulp::obs
