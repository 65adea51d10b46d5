// Field lists of the simulator's counter structs (DESIGN.md §10). Each
// counter struct declares, beside itself, one for_each_counter(f, s...)
// that calls f(name, s.field...) for every 8-byte slot of the structs
// `s...` (all of that type, const or not) in declaration order, under the
// slot's published name. Every whole-struct operation derives from it, and
// a static_assert beside each list checks that it visits sizeof(S) / 8
// slots, so a field missing from its list fails the build.
#pragma once

#include <concepts>
#include <cstddef>
#include <type_traits>

namespace xpulp {

/// An argument of S's for_each_counter: an S, const or not.
template <typename T, typename S>
concept CounterRef = std::same_as<std::remove_cvref_t<T>, S>;

/// A struct with a for_each_counter field list.
template <typename S>
concept CounterStruct = requires(const S& s) {
  for_each_counter([](const char*, const auto&) {}, s);
};

/// Number of slots S's field list visits.
template <typename S>
constexpr std::size_t counter_slots() {
  std::size_t n = 0;
  S s{};
  for_each_counter([&n](const char*, const auto&) { ++n; }, s);
  return n;
}

}  // namespace xpulp
