// Generic codec properties, checked for every fixed-format wire and
// snapshot type over one type list (wire.hpp's guarantees, by test):
//
//   * an instance round-trips to identical bytes;
//   * every strict prefix is rejected with an error, never a crash;
//   * a trailing byte is rejected;
//   * every 4-byte word (so every count and length field) inflated to
//     0xFFFFFFFF is rejected before anything is sized from it: decoding
//     allocates at most a small multiple of the input;
//   * whatever the decoder accepts re-encodes to exactly the same bytes,
//     including after random single-byte corruption.
//
// Adding a type: give it a case below and list it in `Cases`.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "batch/batch_msg.hpp"
#include "bft/harness.hpp"
#include "bft/messages.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "itdos/group_manager.hpp"
#include "itdos/queue.hpp"
#include "itdos/smiop_msg.hpp"
#include "shard/bank.hpp"

// Allocation metering for the hostile-count property. Replacing the global
// allocation functions is per binary; metering is on only around the
// decodes under test.
namespace {
std::size_t g_metered_bytes = 0;
bool g_metering = false;
// Far above any legitimate decode here; a request this large means a
// count reached an allocation unchecked.
constexpr std::size_t kRunawayAllocation = std::size_t{64} << 20;
}  // namespace

// Out of line, so the compiler does not pair inlined malloc/free calls
// with the new-expressions at each call site (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_metering) {
    g_metered_bytes += n;
    if (n > kRunawayAllocation) throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace itdos {
namespace {

using namespace bft;  // NOLINT(google-build-using-namespace): test-local
using namespace core;  // NOLINT(google-build-using-namespace): test-local

template <std::size_t N>
std::array<std::uint8_t, N> filled(std::uint8_t start) {
  std::array<std::uint8_t, N> out{};
  for (std::size_t i = 0; i < N; ++i) out[i] = static_cast<std::uint8_t>(start + 3 * i);
  return out;
}

/// A message type: decode from an owned view, then encode again.
template <typename Case, typename Msg>
struct Message {
  static Bytes wire() { return Case::sample().encode(); }
  static Result<Bytes> reencode(const Bytes& bytes) {
    ITDOS_ASSIGN_OR_RETURN(const Msg msg, Msg::decode(BufView(Bytes(bytes))));
    return msg.encode();
  }
};

/// A GM command alternative, through the variant codec.
template <typename Case>
struct Command {
  static Bytes wire() { return encode_gm_command(GmCommand(Case::sample())); }
  static Result<Bytes> reencode(const Bytes& bytes) {
    ITDOS_ASSIGN_OR_RETURN(const GmCommand cmd, decode_gm_command(bytes));
    return encode_gm_command(cmd);
  }
};

/// A snapshot: restore into a fresh machine, then snapshot again.
template <typename Case>
struct Snapshot {
  static Bytes wire() { return Case::live()->snapshot(); }
  static Result<Bytes> reencode(const Bytes& bytes) {
    auto fresh = Case::fresh();
    ITDOS_RETURN_IF_ERROR(fresh->restore(bytes));
    return fresh->snapshot();
  }
};

// --- BFT ---

struct Request : Message<Request, RequestMsg> {
  static constexpr const char* kName = "Request";
  static RequestMsg sample() {
    RequestMsg m;
    m.client = NodeId(1000);
    m.timestamp = 42;
    m.payload = to_bytes("payload");
    return m;
  }
};

struct PrePrepare : Message<PrePrepare, PrePrepareMsg> {
  static constexpr const char* kName = "PrePrepare";
  static PrePrepareMsg sample() {
    PrePrepareMsg m;
    m.view = ViewId(2);
    m.seq = SeqNum(9);
    m.req_digest = filled<crypto::kDigestSize>(1);
    m.is_batch = true;
    m.request = to_bytes("batch");
    return m;
  }
};

template <typename Case, typename Msg>
struct Phase : Message<Case, Msg> {
  static Msg sample() {
    Msg m;
    m.view = ViewId(2);
    m.seq = SeqNum(9);
    m.req_digest = filled<crypto::kDigestSize>(2);
    m.replica = NodeId(3);
    return m;
  }
};
struct Prepare : Phase<Prepare, PrepareMsg> {
  static constexpr const char* kName = "Prepare";
};
struct Commit : Phase<Commit, CommitMsg> {
  static constexpr const char* kName = "Commit";
};

struct Reply : Message<Reply, ReplyMsg> {
  static constexpr const char* kName = "Reply";
  static ReplyMsg sample() {
    ReplyMsg m;
    m.view = ViewId(2);
    m.timestamp = 42;
    m.client = NodeId(1000);
    m.replica = NodeId(1);
    m.result = to_bytes("OK:7");
    return m;
  }
};

struct Checkpoint : Message<Checkpoint, CheckpointMsg> {
  static constexpr const char* kName = "Checkpoint";
  static CheckpointMsg sample() {
    CheckpointMsg m;
    m.seq = SeqNum(16);
    m.state_digest = filled<crypto::kDigestSize>(3);
    m.replica = NodeId(2);
    return m;
  }
};

struct ViewChange : Message<ViewChange, ViewChangeMsg> {
  static constexpr const char* kName = "ViewChange";
  static ViewChangeMsg sample() {
    ViewChangeMsg m;
    m.new_view = ViewId(3);
    m.stable_seq = SeqNum(16);
    m.stable_digest = filled<crypto::kDigestSize>(4);
    for (std::uint64_t seq : {17, 18}) {
      PreparedProof p;
      p.view = ViewId(2);
      p.seq = SeqNum(seq);
      p.req_digest = filled<crypto::kDigestSize>(static_cast<std::uint8_t>(seq));
      p.is_batch = seq == 18;
      p.request = to_bytes("req-" + std::to_string(seq));
      m.prepared.push_back(p);
    }
    m.replica = NodeId(1);
    return m;
  }
};

struct NewView : Message<NewView, NewViewMsg> {
  static constexpr const char* kName = "NewView";
  static NewViewMsg sample() {
    NewViewMsg m;
    m.view = ViewId(3);
    m.view_changes = {{ViewChange::sample(), filled<crypto::kSignatureSize>(5)}};
    m.pre_prepares = {PrePrepare::sample(), PrePrepareMsg{}};
    m.primary = NodeId(3);
    return m;
  }
};

struct StateRequest : Message<StateRequest, StateRequestMsg> {
  static constexpr const char* kName = "StateRequest";
  static StateRequestMsg sample() {
    StateRequestMsg m;
    m.seq = SeqNum(16);
    m.requester = NodeId(3);
    return m;
  }
};

struct StateResponse : Message<StateResponse, StateResponseMsg> {
  static constexpr const char* kName = "StateResponse";
  static StateResponseMsg sample() {
    StateResponseMsg m;
    m.seq = SeqNum(16);
    m.state_digest = filled<crypto::kDigestSize>(6);
    m.snapshot = to_bytes("snapshot");
    m.replica = NodeId(0);
    m.view = ViewId(3);
    return m;
  }
};

struct MacEnvelope : Message<MacEnvelope, Envelope> {
  static constexpr const char* kName = "MacEnvelope";
  static Envelope sample() {
    Envelope m;
    m.type = MsgType::kCommit;
    m.sender = NodeId(1);
    m.body = to_bytes("body");
    m.auth = {{NodeId(0), filled<crypto::kMacTagSize>(7)},
              {NodeId(2), filled<crypto::kMacTagSize>(8)}};
    return m;
  }
};

struct SignedEnvelope : Message<SignedEnvelope, Envelope> {
  static constexpr const char* kName = "SignedEnvelope";
  static Envelope sample() {
    Envelope m;
    m.type = MsgType::kNewView;
    m.sender = NodeId(3);
    m.body = to_bytes("signed-body");
    m.signature = filled<crypto::kSignatureSize>(9);
    return m;
  }
};

struct Batch : Message<Batch, batch::BatchMsg> {
  static constexpr const char* kName = "Batch";
  static batch::BatchMsg sample() {
    batch::BatchMsg m;
    m.entries.emplace_back(Request::sample().encode());
    m.entries.emplace_back(to_bytes("second"));
    return m;
  }
};

// --- SMIOP ---

struct Ordered : Message<Ordered, OrderedMsg> {
  static constexpr const char* kName = "Ordered";
  static OrderedMsg sample() {
    OrderedMsg m;
    m.conn = ConnectionId(4);
    m.rid = RequestId(8);
    m.origin = NodeId(900);
    m.origin_domain = DomainId(20);
    m.epoch = KeyEpoch(1);
    m.sealed_giop = to_bytes("sealed");
    return m;
  }
};

struct Fragment : Message<Fragment, FragmentMsg> {
  static constexpr const char* kName = "Fragment";
  static FragmentMsg sample() {
    FragmentMsg m;
    m.conn = ConnectionId(4);
    m.rid = RequestId(8);
    m.origin = NodeId(900);
    m.epoch = KeyEpoch(1);
    m.index = 1;
    m.total = 2;
    m.chunk = to_bytes("chunk");
    return m;
  }
};

struct QueueAck : Message<QueueAck, QueueAckMsg> {
  static constexpr const char* kName = "QueueAck";
  static QueueAckMsg sample() {
    QueueAckMsg m;
    m.element = NodeId(501);
    m.consumed_index = 12;
    return m;
  }
};

struct SyncPoint : Message<SyncPoint, SyncPointMsg> {
  static constexpr const char* kName = "SyncPoint";
  static SyncPointMsg sample() {
    SyncPointMsg m;
    m.requester = NodeId(531);
    return m;
  }
};

struct DirectReply : Message<DirectReply, DirectReplyMsg> {
  static constexpr const char* kName = "DirectReply";
  static DirectReplyMsg sample() {
    DirectReplyMsg m;
    m.conn = ConnectionId(4);
    m.rid = RequestId(8);
    m.element = NodeId(511);
    m.epoch = KeyEpoch(1);
    m.sealed_giop = to_bytes("sealed-reply");
    m.plain_signature = filled<crypto::kSignatureSize>(10);
    return m;
  }
};

struct KeyShare : Message<KeyShare, KeyShareMsg> {
  static constexpr const char* kName = "KeyShare";
  static KeyShareMsg sample() {
    KeyShareMsg m;
    m.conn = ConnectionId(4);
    m.epoch = KeyEpoch(1);
    m.target_domain = DomainId(10);
    m.client_node = NodeId(900);
    m.gm_index = 2;
    m.member_epoch = 3;
    m.sealed_share = to_bytes("share");
    return m;
  }
};

struct StateBundle : Message<StateBundle, StateBundleMsg> {
  static constexpr const char* kName = "StateBundle";
  static StateBundleMsg sample() {
    StateBundleMsg m;
    m.domain = DomainId(10);
    m.element = NodeId(521);
    m.consumed_index = 33;
    m.sealed_bundle = to_bytes("bundle");
    return m;
  }
};

// --- GM commands ---

struct Open : Command<Open> {
  static constexpr const char* kName = "GmOpen";
  static OpenRequestMsg sample() {
    OpenRequestMsg m;
    m.client_node = NodeId(900);
    m.target = DomainId(10);
    return m;
  }
};

struct Change : Command<Change> {
  static constexpr const char* kName = "GmChange";
  static ChangeRequestMsg sample() {
    ChangeRequestMsg m;
    m.reporter = NodeId(900);
    m.accused_domain = DomainId(10);
    m.accused_element = NodeId(511);
    m.conn = ConnectionId(4);
    m.rid = RequestId(8);
    ProofEntry entry;
    entry.element = NodeId(511);
    entry.epoch = KeyEpoch(1);
    entry.plain_giop = to_bytes("plain");
    entry.signature = filled<crypto::kSignatureSize>(11);
    m.proof = {entry, entry};
    return m;
  }
};

struct Resend : Command<Resend> {
  static constexpr const char* kName = "GmResend";
  static ResendSharesMsg sample() {
    ResendSharesMsg m;
    m.conn = ConnectionId(4);
    m.requester = NodeId(531);
    return m;
  }
};

struct Membership : Command<Membership> {
  static constexpr const char* kName = "GmMembership";
  static MembershipUpdateMsg sample() {
    MembershipUpdateMsg m;
    m.domain = DomainId(10);
    m.rank = 1;
    m.retired_element = NodeId(511);
    m.admitted_element = NodeId(601);
    m.admitted_gm_client = NodeId(602);
    m.admitted_self_client = NodeId(603);
    m.expected_epoch = 2;
    return m;
  }
};

struct Policy : Command<Policy> {
  static constexpr const char* kName = "GmPolicy";
  static SetResponsePolicyMsg sample() {
    SetResponsePolicyMsg m;
    m.laggard_strikes = 2;
    return m;
  }
};

struct CommandResult : Message<CommandResult, GmCommandResult> {
  static constexpr const char* kName = "GmCommandResult";
  static GmCommandResult sample() {
    GmCommandResult m;
    m.accepted = true;
    m.conn = ConnectionId(4);
    m.epoch = KeyEpoch(1);
    m.detail = "ok";
    return m;
  }
};

// --- Snapshots ---

struct LogSnapshot : Snapshot<LogSnapshot> {
  static constexpr const char* kName = "LogSnapshot";
  static std::unique_ptr<LogStateMachine> fresh() { return std::make_unique<LogStateMachine>(); }
  static std::unique_ptr<LogStateMachine> live() {
    auto log = fresh();
    (void)log->execute(BufView(to_bytes("one")), NodeId(1000), SeqNum(1));
    (void)log->execute(BufView(to_bytes("two")), NodeId(1000), SeqNum(2));
    return log;
  }
};

struct CounterSnapshot : Snapshot<CounterSnapshot> {
  static constexpr const char* kName = "CounterSnapshot";
  static std::unique_ptr<CounterStateMachine> fresh() {
    return std::make_unique<CounterStateMachine>();
  }
  static std::unique_ptr<CounterStateMachine> live() {
    auto counter = fresh();
    (void)counter->execute(BufView(to_bytes("add:-5")), NodeId(1000), SeqNum(1));
    return counter;
  }
};

struct AccountSnapshot {
  static constexpr const char* kName = "AccountSnapshot";
  static Bytes wire() { return shard::AccountServant(77).save_state().value(); }
  static Result<Bytes> reencode(const Bytes& bytes) {
    shard::AccountServant account(0);
    ITDOS_RETURN_IF_ERROR(account.load_state(bytes));
    return account.save_state();
  }
};

struct QueueSnapshot : Snapshot<QueueSnapshot> {
  static constexpr const char* kName = "QueueSnapshot";
  static std::unique_ptr<QueueStateMachine> fresh() {
    QueueOptions options;
    options.max_depth = 2;
    return std::make_unique<QueueStateMachine>(options);
  }
  static std::unique_ptr<QueueStateMachine> live() {
    auto queue = fresh();
    std::uint64_t seq = 1;
    (void)queue->execute(BufView(Ordered::sample().encode()), NodeId(900), SeqNum(seq++));
    FragmentMsg fragment = Fragment::sample();
    for (std::uint32_t index = 0; index < 2; ++index) {
      fragment.rid = RequestId(20 + index);
      fragment.index = 0;
      (void)queue->execute(BufView(fragment.encode()), NodeId(900), SeqNum(seq++));
    }
    (void)queue->execute(BufView(QueueAck::sample().encode()), NodeId(501), SeqNum(seq++));
    return queue;
  }
};

struct GmSnapshot : Snapshot<GmSnapshot> {
  static constexpr const char* kName = "GmSnapshot";
  static std::shared_ptr<const SystemDirectory> directory() {
    DomainInfo gm;
    gm.id = DomainId(1);
    gm.f = 1;
    gm.group = McastGroupId(1);
    DomainInfo server;
    server.id = DomainId(10);
    server.f = 1;
    server.group = McastGroupId(10);
    server.vote_policy = VotePolicy::exact();
    for (std::uint64_t i = 0; i < 4; ++i) {
      for (DomainInfo* domain : {&gm, &server}) {
        ElementInfo info;
        const std::uint64_t base = domain->id.value * 100 + i * 10;
        info.bft_node = NodeId(base);
        info.smiop_node = NodeId(base + 1);
        info.gm_client_node = NodeId(base + 2);
        info.self_client_node = NodeId(base + 3);
        domain->elements.push_back(info);
      }
    }
    auto directory = std::make_shared<SystemDirectory>(gm, ProtocolTiming{});
    directory->add_domain(server);
    directory->set_recovery_authority(NodeId(8000));
    return directory;
  }
  static std::unique_ptr<GmStateMachine> fresh() {
    return std::make_unique<GmStateMachine>(directory(),
                                            std::make_shared<crypto::Keystore>(), nullptr);
  }
  static std::unique_ptr<GmStateMachine> live() {
    auto gm = fresh();
    std::uint64_t seq = 1;
    const auto run = [&](const GmCommand& cmd, NodeId submitter) {
      (void)gm->execute(BufView(encode_gm_command(cmd)), submitter, SeqNum(seq++));
    };
    run(GmCommand(Open::sample()), NodeId(900));
    run(GmCommand(Open::sample()), NodeId(900));
    MembershipUpdateMsg update = Membership::sample();
    update.retired_element = NodeId(1011);
    update.expected_epoch = 0;
    run(GmCommand(update), NodeId(8000));
    return gm;
  }
};

using Cases = ::testing::Types<
    Request, PrePrepare, Prepare, Commit, Reply, Checkpoint, ViewChange, NewView,
    StateRequest, StateResponse, MacEnvelope, SignedEnvelope, Batch, Ordered, Fragment,
    QueueAck, SyncPoint, DirectReply, KeyShare, StateBundle, Open, Change, Resend,
    Membership, Policy, CommandResult, LogSnapshot, CounterSnapshot, AccountSnapshot,
    QueueSnapshot, GmSnapshot>;

struct CaseNames {
  template <typename T>
  static std::string GetName(int) {
    return T::kName;
  }
};

template <typename Case>
class WireCodecProperty : public ::testing::Test {};
TYPED_TEST_SUITE(WireCodecProperty, Cases, CaseNames);

TYPED_TEST(WireCodecProperty, RoundTripsToIdenticalBytes) {
  const Bytes wire = TypeParam::wire();
  const Result<Bytes> again = TypeParam::reencode(wire);
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  EXPECT_EQ(hex_encode(again.value()), hex_encode(wire));
}

TYPED_TEST(WireCodecProperty, RejectsEveryStrictPrefix) {
  const Bytes wire = TypeParam::wire();
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(TypeParam::reencode(Bytes(wire.begin(), wire.begin() + n)).is_ok())
        << "accepted a prefix of " << n << " bytes";
  }
}

TYPED_TEST(WireCodecProperty, RejectsATrailingByte) {
  Bytes wire = TypeParam::wire();
  wire.push_back(0);
  EXPECT_FALSE(TypeParam::reencode(wire).is_ok());
}

TYPED_TEST(WireCodecProperty, InflatedCountsAreRejectedBeforeAllocating) {
  // Every count and length field sits on a 4-byte boundary (nested
  // encapsulations start after a 4-byte length), so inflating every aligned
  // word covers them all. An accepted mutation must re-encode identically,
  // which no inflated count can; and no mutation may allocate more than a
  // small multiple of the input on the way to being rejected.
  const Bytes wire = TypeParam::wire();
  const std::size_t budget = 64 * wire.size() + 64 * 1024;
  for (std::size_t offset = 0; offset + 4 <= wire.size(); offset += 4) {
    Bytes mutated = wire;
    std::fill_n(mutated.begin() + static_cast<std::ptrdiff_t>(offset), 4, 0xff);
    g_metered_bytes = 0;
    g_metering = true;
    const Result<Bytes> again = TypeParam::reencode(mutated);
    g_metering = false;
    EXPECT_LE(g_metered_bytes, budget) << "word at offset " << offset;
    if (again.is_ok()) {
      EXPECT_EQ(hex_encode(again.value()), hex_encode(mutated)) << "offset " << offset;
    }
  }
}

TYPED_TEST(WireCodecProperty, AcceptedCorruptionsReencodeIdentically) {
  const Bytes wire = TypeParam::wire();
  Rng rng(0x5eed);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = wire;
    mutated[rng.next_below(mutated.size())] ^= static_cast<std::uint8_t>(rng.next_in(1, 255));
    const Result<Bytes> again = TypeParam::reencode(mutated);
    if (again.is_ok()) {
      EXPECT_EQ(hex_encode(again.value()), hex_encode(mutated));
    }
  }
}

TEST(WireCodecCap, BatchCountAboveTheCapIsRejectedBeforeAllocating) {
  // kMaxBatchEntries + 1 empty entries: the bytes are all there, so only the
  // cap can reject the count, and it must do so before the entry vector is
  // reserved or any entry is decoded.
  cdr::Encoder enc(wire::kOrder);
  enc.write_uint32(batch::kMaxBatchEntries + 1);
  for (std::uint32_t i = 0; i < batch::kMaxBatchEntries + 1; ++i) enc.write_bytes(Bytes{});
  const BufView wire = enc.take_view();
  g_metered_bytes = 0;
  g_metering = true;
  const bool ok = batch::BatchMsg::decode(wire).is_ok();
  g_metering = false;
  EXPECT_FALSE(ok);
  EXPECT_LE(g_metered_bytes, std::size_t{1024});
}

}  // namespace
}  // namespace itdos
