// Batch wire format: one pre-prepare slot carrying many client requests.
//
// A batch is a counted sequence of encoded bft::RequestMsg frames. The
// primary marshals it ONCE into the arena (each entry's bytes are written
// into the shared chunk); everything downstream — MAC'ing, multicast, the
// replicas' logs, view-change re-proposal and execution — holds views into
// that sealed chunk. decode() hands back zero-copy sub-views per entry.
//
// The batch commits or is re-proposed as a unit: the pre-prepare digest
// covers the whole encoded batch, so no partial entry can survive a view
// change (DESIGN.md §6i's atomic re-proposal rule).
#pragma once

#include <vector>

#include "cdr/wire.hpp"
#include "common/buffer.hpp"
#include "common/result.hpp"

namespace itdos::batch {

/// Upper bound on entries one batch may carry; a larger count is rejected
/// before anything is reserved for it.
inline constexpr std::uint32_t kMaxBatchEntries = 4096;

struct BatchMsg {
  std::vector<BufView> entries;  // each an encoded bft::RequestMsg

  static auto wire_fields(auto& m) {
    return wire::fields(wire::capped<kMaxBatchEntries>(m.entries));
  }
  bool operator==(const BatchMsg&) const = default;

  /// Non-empty.
  Status validate() const;

  Bytes encode() const;

  /// The hot path: one marshal into a recycled arena chunk.
  BufView encode_into(Arena& arena) const;

  /// Zero-copy: every entry is a sub-view sharing `data`'s chunk.
  static Result<BatchMsg> decode(const BufView& data);
};

}  // namespace itdos::batch
