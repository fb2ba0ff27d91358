#include "bft/messages.hpp"

#include "crypto/sha256.hpp"

namespace itdos::bft {

std::string_view msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kRequest: return "REQUEST";
    case MsgType::kPrePrepare: return "PRE-PREPARE";
    case MsgType::kPrepare: return "PREPARE";
    case MsgType::kCommit: return "COMMIT";
    case MsgType::kReply: return "REPLY";
    case MsgType::kCheckpoint: return "CHECKPOINT";
    case MsgType::kViewChange: return "VIEW-CHANGE";
    case MsgType::kNewView: return "NEW-VIEW";
    case MsgType::kStateRequest: return "STATE-REQ";
    case MsgType::kStateResponse: return "STATE-RESP";
  }
  return "<?>";
}

Bytes RequestMsg::encode() const { return wire::encode(*this); }
Result<RequestMsg> RequestMsg::decode(const BufView& data) {
  return wire::decode<RequestMsg>(data);
}
Digest RequestMsg::digest() const { return crypto::sha256(ByteView(encode())); }

Bytes PrePrepareMsg::encode() const { return wire::encode(*this); }
Result<PrePrepareMsg> PrePrepareMsg::decode(const BufView& data) {
  return wire::decode<PrePrepareMsg>(data);
}

Bytes PrepareMsg::encode() const { return wire::encode(*this); }
Result<PrepareMsg> PrepareMsg::decode(ByteView data) {
  return wire::decode<PrepareMsg>(data);
}

Bytes CommitMsg::encode() const { return wire::encode(*this); }
Result<CommitMsg> CommitMsg::decode(ByteView data) { return wire::decode<CommitMsg>(data); }

Bytes ReplyMsg::encode() const { return wire::encode(*this); }
Result<ReplyMsg> ReplyMsg::decode(ByteView data) { return wire::decode<ReplyMsg>(data); }

Bytes CheckpointMsg::encode() const { return wire::encode(*this); }
Result<CheckpointMsg> CheckpointMsg::decode(ByteView data) {
  return wire::decode<CheckpointMsg>(data);
}

Bytes ViewChangeMsg::encode() const { return wire::encode(*this); }
Result<ViewChangeMsg> ViewChangeMsg::decode(const BufView& data) {
  return wire::decode<ViewChangeMsg>(data);
}

Bytes NewViewMsg::encode() const { return wire::encode(*this); }
Result<NewViewMsg> NewViewMsg::decode(const BufView& data) {
  return wire::decode<NewViewMsg>(data);
}

Bytes StateRequestMsg::encode() const { return wire::encode(*this); }
Result<StateRequestMsg> StateRequestMsg::decode(ByteView data) {
  return wire::decode<StateRequestMsg>(data);
}

Bytes StateResponseMsg::encode() const { return wire::encode(*this); }
Result<StateResponseMsg> StateResponseMsg::decode(ByteView data) {
  return wire::decode<StateResponseMsg>(data);
}

Status Envelope::validate() const {
  if (type < MsgType::kRequest || type > MsgType::kStateResponse) {
    return error(Errc::kMalformedMessage, "unknown BFT message type");
  }
  return Status::ok();
}

Bytes Envelope::encode() const { return wire::encode(*this); }
BufView Envelope::encode_into(Arena& arena) const { return wire::encode_into(*this, arena); }
Result<Envelope> Envelope::decode(const BufView& data) { return wire::decode<Envelope>(data); }

const crypto::MacTag* Envelope::tag_for(NodeId receiver) const {
  for (const auto& [node, tag] : auth) {
    if (node == receiver) return &tag;
  }
  return nullptr;
}

}  // namespace itdos::bft
