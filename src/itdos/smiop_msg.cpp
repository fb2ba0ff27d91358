#include "itdos/smiop_msg.hpp"

namespace itdos::core {

// ---------------------------------------------------------------------------
// Queue entries
// ---------------------------------------------------------------------------

Result<QueueEntryKind> queue_entry_kind(ByteView data) {
  if (data.empty()) return error(Errc::kMalformedMessage, "empty queue entry");
  if (data[0] < static_cast<std::uint8_t>(QueueEntryKind::kRequest) ||
      data[0] > static_cast<std::uint8_t>(QueueEntryKind::kFragment)) {
    return error(Errc::kMalformedMessage, "unknown queue entry kind");
  }
  return static_cast<QueueEntryKind>(data[0]);
}

Status FragmentMsg::validate() const {
  if (total == 0 || total > kMaxFragments || index >= total) {
    return error(Errc::kMalformedMessage, "fragment indices out of range");
  }
  return Status::ok();
}

Bytes FragmentMsg::encode() const { return wire::encode(*this); }
Result<FragmentMsg> FragmentMsg::decode(const BufView& data) {
  return wire::decode<FragmentMsg>(data);
}

Bytes SyncPointMsg::encode() const { return wire::encode(*this); }
Result<SyncPointMsg> SyncPointMsg::decode(ByteView data) {
  return wire::decode<SyncPointMsg>(data);
}

Bytes OrderedMsg::encode() const { return wire::encode(*this); }
Result<OrderedMsg> OrderedMsg::decode(const BufView& data) {
  return wire::decode<OrderedMsg>(data);
}

Bytes QueueAckMsg::encode() const { return wire::encode(*this); }
Result<QueueAckMsg> QueueAckMsg::decode(ByteView data) {
  return wire::decode<QueueAckMsg>(data);
}

// ---------------------------------------------------------------------------
// Direct SMIOP messages
// ---------------------------------------------------------------------------

Result<SmiopType> smiop_type(ByteView data) {
  if (data.empty()) return error(Errc::kMalformedMessage, "empty SMIOP message");
  if (data[0] != static_cast<std::uint8_t>(SmiopType::kDirectReply) &&
      data[0] != static_cast<std::uint8_t>(SmiopType::kKeyShare) &&
      data[0] != static_cast<std::uint8_t>(SmiopType::kStateBundle)) {
    return error(Errc::kMalformedMessage, "unknown SMIOP message type");
  }
  return static_cast<SmiopType>(data[0]);
}

bool parses_as_smiop(ByteView data) {
  const Result<SmiopType> type = smiop_type(data);
  if (!type.is_ok()) return false;
  // Validation only: the decoded views never outlive this scope, so a
  // non-owning borrow avoids copying the payload.
  const BufView scoped = BufView::borrow(data);
  switch (type.value()) {
    case SmiopType::kDirectReply: return DirectReplyMsg::decode(scoped).is_ok();
    case SmiopType::kKeyShare: return KeyShareMsg::decode(scoped).is_ok();
    case SmiopType::kStateBundle: return StateBundleMsg::decode(scoped).is_ok();
  }
  return false;
}

Bytes StateBundleMsg::encode() const { return wire::encode(*this); }
Result<StateBundleMsg> StateBundleMsg::decode(const BufView& data) {
  return wire::decode<StateBundleMsg>(data);
}

Bytes DirectReplyMsg::signed_region(ConnectionId conn, RequestId rid, NodeId element,
                                    KeyEpoch epoch, const crypto::Digest& plain_digest) {
  return wire::encode(wire::fields(conn, rid, element, epoch, plain_digest));
}

Bytes DirectReplyMsg::encode() const { return wire::encode(*this); }
Result<DirectReplyMsg> DirectReplyMsg::decode(const BufView& data) {
  return wire::decode<DirectReplyMsg>(data);
}

Bytes KeyShareMsg::encode() const { return wire::encode(*this); }
Bytes KeyShareMsg::framing_aad() const { return wire::encode(framing(*this)); }
Result<KeyShareMsg> KeyShareMsg::decode(const BufView& data) {
  return wire::decode<KeyShareMsg>(data);
}

// ---------------------------------------------------------------------------
// Group Manager commands
// ---------------------------------------------------------------------------

Bytes encode_gm_command(const GmCommand& cmd) { return wire::encode(cmd); }
Result<GmCommand> decode_gm_command(ByteView data) { return wire::decode<GmCommand>(data); }

Bytes GmCommandResult::encode() const { return wire::encode(*this); }
Result<GmCommandResult> GmCommandResult::decode(ByteView data) {
  return wire::decode<GmCommandResult>(data);
}

}  // namespace itdos::core
