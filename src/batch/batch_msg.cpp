#include "batch/batch_msg.hpp"

namespace itdos::batch {

Status BatchMsg::validate() const {
  if (entries.empty()) return error(Errc::kMalformedMessage, "empty BATCH");
  return Status::ok();
}

Bytes BatchMsg::encode() const { return wire::encode(*this); }
BufView BatchMsg::encode_into(Arena& arena) const { return wire::encode_into(*this, arena); }
Result<BatchMsg> BatchMsg::decode(const BufView& data) { return wire::decode<BatchMsg>(data); }

}  // namespace itdos::batch
