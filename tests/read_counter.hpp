// Tests read telemetry counters by name, the one read API (DESIGN.md §6).
// A name no component registered fails the test rather than reading as
// zero, so a misspelled name cannot pass an EXPECT_EQ(..., 0).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/ids.hpp"
#include "itdos/system.hpp"
#include "net/sim.hpp"

namespace itdos {

inline std::uint64_t read_counter(const net::Simulator& sim, std::string_view name) {
  const telemetry::Counter* counter = sim.telemetry().metrics().find_counter(name);
  if (counter == nullptr) {
    ADD_FAILURE() << "no counter registered as " << name;
    return 0;
  }
  return counter->value();
}

/// `<layer>.<node>.<field>`, e.g. read_counter(sim, "bft", replica, "executed").
inline std::uint64_t read_counter(const net::Simulator& sim, std::string_view layer,
                                  NodeId node, std::string_view field) {
  return read_counter(sim, std::string(layer) + "." + node.to_string() + "." +
                               std::string(field));
}

/// `element.<node>.<field>` of the element at `rank` of `domain`.
inline std::uint64_t read_counter(core::ItdosSystem& system, DomainId domain, int rank,
                                  std::string_view field) {
  return read_counter(system.sim(), "element", system.element(domain, rank).smiop_node(),
                      field);
}

}  // namespace itdos
