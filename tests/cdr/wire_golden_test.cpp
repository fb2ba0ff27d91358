// Golden wire vectors: the exact bytes of one non-trivial instance of every
// fixed-format (little-endian, below-GIOP) wire and snapshot type.
//
// These bytes are the protocol. Peers, checkpoint digests, seal AADs and
// signatures all depend on them, so a refactor of the codecs must leave
// every vector here unchanged. A deliberate format change updates the
// vector in the same commit and says why.
//
// Each message vector is checked both ways: the instance encodes to the
// pinned hex, and the pinned hex decodes back to the instance. Each
// snapshot vector is taken from a live state machine, and restoring it
// into a fresh one must reproduce the same bytes.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "bft/harness.hpp"
#include "bft/messages.hpp"
#include "batch/batch_msg.hpp"
#include "common/bytes.hpp"
#include "crypto/cipher.hpp"
#include "itdos/group_manager.hpp"
#include "itdos/queue.hpp"
#include "itdos/smiop_msg.hpp"
#include "itdos/system.hpp"
#include "shard/bank.hpp"

namespace itdos {
namespace {

using namespace bft;  // NOLINT(google-build-using-namespace): test-local
using namespace core;  // NOLINT(google-build-using-namespace): test-local

const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> kGolden = {
      {"batch.batch",
       "0200000019000000e80300000000000007000000000000000500000066697273"
       "7400000020000000e80300000000000008000000000000000c0000007365636f"
       "6e642d656e747279"},
      {"bft.checkpoint",
       "2000000000000000303132333435363738393a3b3c3d3e3f4041424344454647"
       "48494a4b4c4d4e4f0000000000000000"},
      {"bft.commit",
       "03000000000000001200000000000000202122232425262728292a2b2c2d2e2f"
       "303132333435363738393a3b3c3d3e3f0100000000000000"},
      {"bft.envelope.macs",
       "030000000000000002000000000000000c000000707265706172652d626f6479"
       "03000000000000000000000000000000808182838485868788898a8b8c8d8e8f"
       "0100000000000000909192939495969798999a9b9c9d9e9f0300000000000000"
       "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf00"},
      {"bft.envelope.signed",
       "0700000000000000030000000000000010000000766965772d6368616e67652d"
       "626f64790000000001c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6"
       "d7d8d9dadbdcdddedf"},
      {"bft.new_view",
       "040000000000000002000000c800000004000000000000002000000000000000"
       "404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"
       "0200000000000000030000000000000021000000000000002122232425262728"
       "292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f400000000009000000"
       "70702d73696e676c650000000000000003000000000000002200000000000000"
       "22232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f4041"
       "010000000800000070702d626174636801000000000000005051525354555657"
       "58595a5b5c5d5e5f606162636465666768696a6b6c6d6e6fc800000004000000"
       "000000002000000000000000404142434445464748494a4b4c4d4e4f50515253"
       "5455565758595a5b5c5d5e5f0200000000000000030000000000000021000000"
       "000000002122232425262728292a2b2c2d2e2f303132333435363738393a3b3c"
       "3d3e3f40000000000900000070702d73696e676c650000000000000003000000"
       "00000000220000000000000022232425262728292a2b2c2d2e2f303132333435"
       "363738393a3b3c3d3e3f4041010000000800000070702d626174636802000000"
       "00000000606162636465666768696a6b6c6d6e6f707172737475767778797a7b"
       "7c7d7e7f02000000380000000400000000000000210000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "000000004300000003000000000000001100000000000000a0a1a2a3a4a5a6a7"
       "a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf010000000b000000"
       "62617463682d627974657300000000000000000000000000"},
      {"bft.pre_prepare",
       "03000000000000001100000000000000a0a1a2a3a4a5a6a7a8a9aaabacadaeaf"
       "b0b1b2b3b4b5b6b7b8b9babbbcbdbebf010000000b00000062617463682d6279"
       "746573"},
      {"bft.prepare",
       "03000000000000001100000000000000101112131415161718191a1b1c1d1e1f"
       "202122232425262728292a2b2c2d2e2f0200000000000000"},
      {"bft.reply",
       "03000000000000002a00000000000000e8030000000000000200000000000000"
       "040000004f4b3a31"},
      {"bft.request",
       "e8030000000000002a000000000000000c000000646f2d736f6d657468696e67"},
      {"bft.state_request",
       "20000000000000000300000000000000"},
      {"bft.state_response",
       "2000000000000000707172737475767778797a7b7c7d7e7f8081828384858687"
       "88898a8b8c8d8e8f0e000000736e617073686f742d6279746573000000000000"
       "01000000000000000400000000000000"},
      {"bft.view_change",
       "04000000000000002000000000000000404142434445464748494a4b4c4d4e4f"
       "505152535455565758595a5b5c5d5e5f02000000000000000300000000000000"
       "21000000000000002122232425262728292a2b2c2d2e2f303132333435363738"
       "393a3b3c3d3e3f40000000000900000070702d73696e676c6500000000000000"
       "0300000000000000220000000000000022232425262728292a2b2c2d2e2f3031"
       "32333435363738393a3b3c3d3e3f4041010000000800000070702d6261746368"
       "0300000000000000"},
      {"gm.change",
       "0200000000000000282300000000000000000000000000000a00000000000000"
       "ff01000000000000050000000000000009000000000000000200000000000000"
       "f501000000000000020000000000000007000000706c61696e2d303334353637"
       "38393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f5051520000000000"
       "ff01000000000000020000000000000009000000706c61696e2d6f6e65343536"
       "3738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f50515253"},
      {"gm.membership",
       "04000000000000000a0000000000000002000000000000000902000000000000"
       "59020000000000005a020000000000005b020000000000000400000000000000"},
      {"gm.open",
       "0100000000000000282300000000000014000000000000000a00000000000000"},
      {"gm.resend",
       "030000000000000005000000000000001302000000000000"},
      {"gm.result",
       "010000000000000005000000000000000200000000000000070000006f70656e"
       "656400"},
      {"gm.set_policy",
       "05000000000000000300000000000000"},
      {"smiop.direct_reply",
       "010000000000000005000000000000000900000000000000ff01000000000000"
       "02000000000000000c0000007365616c65642d7265706c791112131415161718"
       "191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f30"},
      {"smiop.fragment",
       "040000000000000005000000000000000a00000000000000bc02000000000000"
       "140000000000000002000000000000000100000003000000070000006368756e"
       "6b2d31"},
      {"smiop.key_share",
       "0200000000000000050000000000000002000000000000000a00000000000000"
       "2823000000000000140000000000000003000000000000000600000000000000"
       "0c0000007365616c65642d7368617265"},
      {"smiop.key_share.framing_aad",
       "050000000000000002000000000000000a000000000000002823000000000000"
       "140000000000000003000000000000000600000000000000"},
      {"smiop.ordered",
       "010000000000000005000000000000000900000000000000bc02000000000000"
       "140000000000000002000000000000000b0000007365616c65642d67696f70"},
      {"smiop.queue_ack",
       "0200000000000000f5010000000000004d00000000000000"},
      {"smiop.signed_region",
       "05000000000000000900000000000000ff010000000000000200000000000000"
       "22232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f4041"},
      {"smiop.state_bundle",
       "03000000000000000a0000000000000009020000000000004000000000000000"
       "0d0000007365616c65642d62756e646c65"},
      {"smiop.sync_point",
       "03000000000000001302000000000000"},
      {"snapshot.account",
       "2efbffffffffffff"},
      {"snapshot.bundle_plain",
       "0400000000000000010000000000000001000000000000000300000000000000"
       "01000000000000000100000000000000080000004200000000000000"},
      {"snapshot.counter",
       "2501000000000000"},
      {"snapshot.gm",
       "0300000000000000000000000000000001000000000000000200000000000000"
       "0100000000000000282300000000000000000000000000000a00000000000000"
       "0200000000000000010000000000000002000000000000000100000000000000"
       "0000000000000000020000000000000001000000000000000200000000000000"
       "e90300000000000014000000000000000a000000000000000200000000000000"
       "0100000000000000020000000000000001000000000000000000000000000000"
       "0200000000000000010000000000000002000000000000000a00000000000000"
       "01000000000000000400000000000000f501000000000000f601000000000000"
       "591b0000000000005a1b00000000000009020000000000000a02000000000000"
       "1302000000000000140200000000000014000000000000000000000000000000"
       "0400000000000000e903000000000000ea03000000000000f303000000000000"
       "f403000000000000fd03000000000000fe030000000000000704000000000000"
       "080400000000000001000000000000000a000000000000000100000000000000"
       "ff01000000000000010000000000000009020000000000000200000000000000"
       "05000000000000000100000000000000fd030000000000000300000000000000"
       "010000000000000013020000000000000100000000000000"},
      {"snapshot.log",
       "0300000005000000616c70686100000004000000626574610b00000067616d6d"
       "612d656e747279"},
      {"snapshot.queue",
       "0000000000000000030000000000000003000000000000000000000000000000"
       "3a000000010000000000000001000000000000000a0000000000000028230000"
       "00000000000000000000000001000000000000000600000067696f702d310000"
       "01000000000000003a0000000100000000000000020000000000000014000000"
       "0000000028230000000000000000000000000000010000000000000006000000"
       "67696f702d32000002000000000000003a000000010000000000000003000000"
       "000000001e000000000000002823000000000000000000000000000001000000"
       "000000000600000067696f702d3300000200000000000000f501000000000000"
       "0200000000000000ff0100000000000001000000000000000100000000000000"
       "3c00000006000000"},
      {"snapshot.replica",
       "0100000000000000e80300000000000004000000000000000400000000000000"
       "00000000040000000100000000000000040000004f4b3a310200000000000000"
       "040000004f4b3a320300000000000000040000004f4b3a330400000000000000"
       "040000004f4b3a342400000004000000040000006f702d31040000006f702d32"
       "040000006f702d33040000006f702d34"},
  };
  return kGolden;
}

void expect_golden(const std::string& name, ByteView bytes) {
  const auto it = golden().find(name);
  const std::string actual = hex_encode(bytes);
  ASSERT_NE(it, golden().end()) << "no golden vector " << name << " " << actual;
  EXPECT_EQ(actual, it->second) << "golden vector " << name << " changed";
}

Bytes golden_bytes(const std::string& name) {
  const auto it = golden().find(name);
  return it == golden().end() ? Bytes{} : hex_decode(it->second);
}

/// Encodes to the pinned hex, and the pinned hex decodes back to `msg`.
template <typename T>
void expect_message(const std::string& name, const T& msg) {
  expect_golden(name, msg.encode());
  const Result<T> back = T::decode(BufView(golden_bytes(name)));
  ASSERT_TRUE(back.is_ok()) << name << ": " << back.status().to_string();
  EXPECT_EQ(hex_encode(back.value().encode()), hex_encode(msg.encode())) << name;
  if constexpr (std::equality_comparable<T>) {
    EXPECT_TRUE(back.value() == msg) << name;
  }
}

template <std::size_t N>
std::array<std::uint8_t, N> pattern(std::uint8_t start) {
  std::array<std::uint8_t, N> out{};
  for (std::size_t i = 0; i < N; ++i) out[i] = static_cast<std::uint8_t>(start + i);
  return out;
}

// ---------------------------------------------------------------------------
// BFT messages
// ---------------------------------------------------------------------------

RequestMsg request_msg(std::uint64_t ts, std::string_view payload) {
  RequestMsg msg;
  msg.client = NodeId(1000);
  msg.timestamp = ts;
  msg.payload = to_bytes(payload);
  return msg;
}

PrePrepareMsg pre_prepare_msg() {
  PrePrepareMsg msg;
  msg.view = ViewId(3);
  msg.seq = SeqNum(17);
  msg.req_digest = pattern<crypto::kDigestSize>(0xa0);
  msg.is_batch = true;
  msg.request = to_bytes("batch-bytes");
  return msg;
}

PreparedProof prepared_proof(std::uint64_t seq, bool is_batch) {
  PreparedProof p;
  p.view = ViewId(3);
  p.seq = SeqNum(seq);
  p.req_digest = pattern<crypto::kDigestSize>(static_cast<std::uint8_t>(seq));
  p.is_batch = is_batch;
  p.request = to_bytes(is_batch ? "pp-batch" : "pp-single");
  return p;
}

ViewChangeMsg view_change_msg(std::uint64_t replica) {
  ViewChangeMsg msg;
  msg.new_view = ViewId(4);
  msg.stable_seq = SeqNum(32);
  msg.stable_digest = pattern<crypto::kDigestSize>(0x40);
  msg.prepared = {prepared_proof(33, false), prepared_proof(34, true)};
  msg.replica = NodeId(replica);
  return msg;
}

TEST(WireGoldenTest, BftMessages) {
  expect_message("bft.request", request_msg(42, "do-something"));
  expect_message("bft.pre_prepare", pre_prepare_msg());

  PrepareMsg prepare;
  prepare.view = ViewId(3);
  prepare.seq = SeqNum(17);
  prepare.req_digest = pattern<crypto::kDigestSize>(0x10);
  prepare.replica = NodeId(2);
  expect_message("bft.prepare", prepare);

  CommitMsg commit;
  commit.view = ViewId(3);
  commit.seq = SeqNum(18);
  commit.req_digest = pattern<crypto::kDigestSize>(0x20);
  commit.replica = NodeId(1);
  expect_message("bft.commit", commit);

  ReplyMsg reply;
  reply.view = ViewId(3);
  reply.timestamp = 42;
  reply.client = NodeId(1000);
  reply.replica = NodeId(2);
  reply.result = to_bytes("OK:1");
  expect_message("bft.reply", reply);

  CheckpointMsg checkpoint;
  checkpoint.seq = SeqNum(32);
  checkpoint.state_digest = pattern<crypto::kDigestSize>(0x30);
  checkpoint.replica = NodeId(0);
  expect_message("bft.checkpoint", checkpoint);

  expect_message("bft.view_change", view_change_msg(3));

  NewViewMsg new_view;
  new_view.view = ViewId(4);
  new_view.view_changes = {{view_change_msg(1), pattern<crypto::kSignatureSize>(0x50)},
                           {view_change_msg(2), pattern<crypto::kSignatureSize>(0x60)}};
  PrePrepareMsg null_pp;
  null_pp.view = ViewId(4);
  null_pp.seq = SeqNum(33);
  new_view.pre_prepares = {null_pp, pre_prepare_msg()};
  new_view.primary = NodeId(0);
  expect_message("bft.new_view", new_view);

  StateRequestMsg state_request;
  state_request.seq = SeqNum(32);
  state_request.requester = NodeId(3);
  expect_message("bft.state_request", state_request);

  StateResponseMsg state_response;
  state_response.seq = SeqNum(32);
  state_response.state_digest = pattern<crypto::kDigestSize>(0x70);
  state_response.snapshot = to_bytes("snapshot-bytes");
  state_response.replica = NodeId(1);
  state_response.view = ViewId(4);
  expect_message("bft.state_response", state_response);
}

TEST(WireGoldenTest, BftEnvelopes) {
  Envelope macs;
  macs.type = MsgType::kPrepare;
  macs.sender = NodeId(2);
  macs.body = to_bytes("prepare-body");
  macs.auth = {{NodeId(0), pattern<crypto::kMacTagSize>(0x80)},
               {NodeId(1), pattern<crypto::kMacTagSize>(0x90)},
               {NodeId(3), pattern<crypto::kMacTagSize>(0xa0)}};
  expect_message("bft.envelope.macs", macs);
  Arena arena;
  EXPECT_EQ(hex_encode(macs.encode_into(arena)), hex_encode(macs.encode()));

  Envelope signed_env;
  signed_env.type = MsgType::kViewChange;
  signed_env.sender = NodeId(3);
  signed_env.body = to_bytes("view-change-body");
  signed_env.signature = pattern<crypto::kSignatureSize>(0xc0);
  expect_message("bft.envelope.signed", signed_env);
}

TEST(WireGoldenTest, BatchMsg) {
  batch::BatchMsg msg;
  msg.entries.push_back(BufView(request_msg(7, "first").encode()));
  msg.entries.push_back(BufView(request_msg(8, "second-entry").encode()));
  expect_message("batch.batch", msg);
  Arena arena;
  EXPECT_EQ(hex_encode(msg.encode_into(arena)), hex_encode(msg.encode()));
}

// ---------------------------------------------------------------------------
// SMIOP messages and GM commands
// ---------------------------------------------------------------------------

TEST(WireGoldenTest, QueueEntries) {
  OrderedMsg ordered;
  ordered.conn = ConnectionId(5);
  ordered.rid = RequestId(9);
  ordered.origin = NodeId(700);
  ordered.origin_domain = DomainId(20);
  ordered.epoch = KeyEpoch(2);
  ordered.sealed_giop = to_bytes("sealed-giop");
  expect_message("smiop.ordered", ordered);

  FragmentMsg fragment;
  fragment.conn = ConnectionId(5);
  fragment.rid = RequestId(10);
  fragment.origin = NodeId(700);
  fragment.origin_domain = DomainId(20);
  fragment.epoch = KeyEpoch(2);
  fragment.index = 1;
  fragment.total = 3;
  fragment.chunk = to_bytes("chunk-1");
  expect_message("smiop.fragment", fragment);

  QueueAckMsg ack;
  ack.element = NodeId(501);
  ack.consumed_index = 77;
  expect_message("smiop.queue_ack", ack);

  SyncPointMsg sync;
  sync.requester = NodeId(531);
  expect_message("smiop.sync_point", sync);
}

TEST(WireGoldenTest, DirectSmiopMessages) {
  DirectReplyMsg reply;
  reply.conn = ConnectionId(5);
  reply.rid = RequestId(9);
  reply.element = NodeId(511);
  reply.epoch = KeyEpoch(2);
  reply.sealed_giop = to_bytes("sealed-reply");
  reply.plain_signature = pattern<crypto::kSignatureSize>(0x11);
  expect_message("smiop.direct_reply", reply);
  expect_golden("smiop.signed_region",
                DirectReplyMsg::signed_region(ConnectionId(5), RequestId(9), NodeId(511),
                                              KeyEpoch(2),
                                              pattern<crypto::kDigestSize>(0x22)));

  KeyShareMsg share;
  share.conn = ConnectionId(5);
  share.epoch = KeyEpoch(2);
  share.target_domain = DomainId(10);
  share.client_node = NodeId(9000);
  share.client_domain = DomainId(20);
  share.gm_index = 3;
  share.member_epoch = 6;
  share.sealed_share = to_bytes("sealed-share");
  expect_message("smiop.key_share", share);
  expect_golden("smiop.key_share.framing_aad", share.framing_aad());

  StateBundleMsg bundle;
  bundle.domain = DomainId(10);
  bundle.element = NodeId(521);
  bundle.consumed_index = 64;
  bundle.sealed_bundle = to_bytes("sealed-bundle");
  expect_message("smiop.state_bundle", bundle);
}

template <typename Cmd>
void expect_gm_command(const std::string& name, const Cmd& cmd) {
  const GmCommand command(cmd);
  expect_golden(name, encode_gm_command(command));
  const Result<GmCommand> back = decode_gm_command(golden_bytes(name));
  ASSERT_TRUE(back.is_ok()) << name << ": " << back.status().to_string();
  EXPECT_TRUE(back.value() == command) << name;
}

TEST(WireGoldenTest, GmCommands) {
  OpenRequestMsg open;
  open.client_node = NodeId(9000);
  open.client_domain = DomainId(20);
  open.target = DomainId(10);
  expect_gm_command("gm.open", open);

  ChangeRequestMsg change;
  change.reporter = NodeId(9000);
  change.reporter_domain = DomainId(0);
  change.accused_domain = DomainId(10);
  change.accused_element = NodeId(511);
  change.conn = ConnectionId(5);
  change.rid = RequestId(9);
  for (std::uint64_t i = 0; i < 2; ++i) {
    ProofEntry entry;
    entry.element = NodeId(501 + 10 * i);
    entry.epoch = KeyEpoch(2);
    entry.plain_giop = to_bytes(i == 0 ? "plain-0" : "plain-one");
    entry.signature = pattern<crypto::kSignatureSize>(static_cast<std::uint8_t>(0x33 + i));
    change.proof.push_back(std::move(entry));
  }
  expect_gm_command("gm.change", change);

  ResendSharesMsg resend;
  resend.conn = ConnectionId(5);
  resend.requester = NodeId(531);
  expect_gm_command("gm.resend", resend);

  MembershipUpdateMsg update;
  update.domain = DomainId(10);
  update.rank = 2;
  update.retired_element = NodeId(521);
  update.admitted_element = NodeId(601);
  update.admitted_gm_client = NodeId(602);
  update.admitted_self_client = NodeId(603);
  update.expected_epoch = 4;
  expect_gm_command("gm.membership", update);

  SetResponsePolicyMsg policy;
  policy.laggard_strikes = 3;
  expect_gm_command("gm.set_policy", policy);

  GmCommandResult result;
  result.accepted = true;
  result.conn = ConnectionId(5);
  result.epoch = KeyEpoch(2);
  result.detail = "opened";
  expect_message("gm.result", result);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

template <typename Machine>
void expect_snapshot(const std::string& name, const Machine& live, Machine& fresh) {
  expect_golden(name, live.snapshot());
  const Status restored = fresh.restore(golden_bytes(name));
  ASSERT_TRUE(restored.is_ok()) << name << ": " << restored.to_string();
  EXPECT_EQ(hex_encode(fresh.snapshot()), hex_encode(live.snapshot())) << name;
}

TEST(WireGoldenTest, SampleStateMachineSnapshots) {
  LogStateMachine log;
  for (const char* cmd : {"alpha", "beta", "gamma-entry"}) {
    (void)log.execute(BufView(to_bytes(cmd)), NodeId(1000), SeqNum(1));
  }
  LogStateMachine log_fresh;
  expect_snapshot("snapshot.log", log, log_fresh);

  CounterStateMachine counter;
  (void)counter.execute(BufView(to_bytes("add:-7")), NodeId(1000), SeqNum(1));
  (void)counter.execute(BufView(to_bytes("add:300")), NodeId(1000), SeqNum(2));
  CounterStateMachine counter_fresh;
  expect_snapshot("snapshot.counter", counter, counter_fresh);

  const shard::AccountServant account(-1234);
  const Result<Bytes> saved = account.save_state();
  ASSERT_TRUE(saved.is_ok());
  expect_golden("snapshot.account", saved.value());
  shard::AccountServant account_fresh(0);
  ASSERT_TRUE(account_fresh.load_state(golden_bytes("snapshot.account")).is_ok());
  EXPECT_EQ(hex_encode(account_fresh.save_state().value()), hex_encode(saved.value()));
}

TEST(WireGoldenTest, QueueSnapshot) {
  QueueOptions options;
  options.max_depth = 3;
  QueueStateMachine queue(options);
  std::uint64_t seq = 1;
  for (std::uint64_t conn = 1; conn <= 4; ++conn) {
    OrderedMsg msg;
    msg.conn = ConnectionId(conn);
    msg.rid = RequestId(conn * 10);
    msg.origin = NodeId(9000);
    msg.epoch = KeyEpoch(1);
    msg.sealed_giop = to_bytes("giop-" + std::to_string(conn));
    (void)queue.execute(BufView(msg.encode()), NodeId(9000), SeqNum(seq++));
  }
  // Over max_depth: the first fragment of a stream is shed, and the stream
  // is remembered so its continuations shed too.
  FragmentMsg first;
  first.conn = ConnectionId(6);
  first.rid = RequestId(60);
  first.origin = NodeId(9000);
  first.epoch = KeyEpoch(1);
  first.index = 0;
  first.total = 2;
  first.chunk = to_bytes("frag-0");
  (void)queue.execute(BufView(first.encode()), NodeId(9000), SeqNum(seq++));
  for (std::uint64_t element : {501, 511}) {
    QueueAckMsg ack;
    ack.element = NodeId(element);
    ack.consumed_index = element == 501 ? 2 : 1;
    (void)queue.execute(BufView(ack.encode()), NodeId(element), SeqNum(seq++));
  }
  QueueStateMachine fresh(options);
  expect_snapshot("snapshot.queue", queue, fresh);
}

class GmSnapshotTest : public ::testing::Test {
 protected:
  class NullDistributor : public ShareDistributor {
   public:
    void distribute(const ConnRecord&, const std::vector<NodeId>&) override {}
  };

  static ElementInfo element_info(std::uint64_t base) {
    ElementInfo info;
    info.bft_node = NodeId(base);
    info.smiop_node = NodeId(base + 1);
    info.gm_client_node = NodeId(base + 2);
    info.self_client_node = NodeId(base + 3);
    return info;
  }

  GmSnapshotTest() {
    DomainInfo gm;
    gm.id = DomainId(1);
    gm.f = 1;
    gm.group = McastGroupId(1);
    for (int i = 0; i < 4; ++i) gm.elements.push_back(element_info(100 + i * 10));
    auto directory = std::make_shared<SystemDirectory>(gm, ProtocolTiming{});
    for (std::uint64_t d : {10, 20}) {
      DomainInfo domain;
      domain.id = DomainId(d);
      domain.f = 1;
      domain.group = McastGroupId(d);
      domain.vote_policy = VotePolicy::exact();
      for (int i = 0; i < 4; ++i) {
        domain.elements.push_back(element_info(d * 50 + static_cast<std::uint64_t>(i) * 10));
      }
      directory->add_domain(domain);
    }
    directory->set_recovery_authority(NodeId(8000));
    directory_ = directory;
    keystore_ = std::make_shared<crypto::Keystore>();
  }

  void run(GmStateMachine& gm, const GmCommand& cmd, NodeId submitter) {
    (void)gm.execute(BufView(encode_gm_command(cmd)), submitter, SeqNum(seq_++));
  }

  std::shared_ptr<const SystemDirectory> directory_;
  std::shared_ptr<crypto::Keystore> keystore_;
  NullDistributor distributor_;
  std::uint64_t seq_ = 1;
};

TEST_F(GmSnapshotTest, GroupManagerSnapshot) {
  GmStateMachine gm(directory_, keystore_, &distributor_);
  // Two connections: a singleton client and the replicated domain 20.
  OpenRequestMsg singleton;
  singleton.client_node = NodeId(9000);
  singleton.target = DomainId(10);
  run(gm, GmCommand(singleton), NodeId(9000));
  const DomainInfo* client_domain = directory_->find_domain(DomainId(20));
  ASSERT_NE(client_domain, nullptr);
  for (const ElementInfo& element : client_domain->elements) {
    OpenRequestMsg replicated;
    replicated.client_node = element.smiop_node;
    replicated.client_domain = DomainId(20);
    replicated.target = DomainId(10);
    run(gm, GmCommand(replicated), element.gm_client_node);
  }
  // Conservative policy, so one suspicion quorum is a strike, not an
  // expulsion; then a membership update (views + epoch history).
  SetResponsePolicyMsg policy;
  policy.laggard_strikes = 3;
  run(gm, GmCommand(policy), NodeId(8000));
  const DomainInfo* server = directory_->find_domain(DomainId(10));
  ASSERT_NE(server, nullptr);
  for (int i = 0; i < 2; ++i) {
    ChangeRequestMsg suspicion;
    suspicion.reporter = client_domain->elements[static_cast<std::size_t>(i)].smiop_node;
    suspicion.reporter_domain = DomainId(20);
    suspicion.accused_domain = DomainId(10);
    suspicion.accused_element = server->elements[3].smiop_node;
    suspicion.conn = ConnectionId(2);
    suspicion.rid = RequestId(4);
    run(gm, GmCommand(suspicion),
        client_domain->elements[static_cast<std::size_t>(i)].gm_client_node);
  }
  // A lone suspicion stays an open tally (below the f+1 quorum).
  ChangeRequestMsg lone;
  lone.reporter = client_domain->elements[2].smiop_node;
  lone.reporter_domain = DomainId(20);
  lone.accused_domain = DomainId(10);
  lone.accused_element = server->elements[2].smiop_node;
  lone.conn = ConnectionId(2);
  lone.rid = RequestId(5);
  run(gm, GmCommand(lone), client_domain->elements[2].gm_client_node);
  MembershipUpdateMsg update;
  update.domain = DomainId(10);
  update.rank = 1;
  update.retired_element = server->elements[1].smiop_node;
  update.admitted_element = NodeId(7001);
  update.admitted_gm_client = NodeId(7002);
  update.admitted_self_client = NodeId(7003);
  update.expected_epoch = 0;
  run(gm, GmCommand(update), NodeId(8000));

  GmStateMachine fresh(directory_, keystore_, &distributor_);
  expect_snapshot("snapshot.gm", gm, fresh);
}

TEST(WireGoldenTest, ReplicaClientTableSnapshot) {
  // A lagging replica catches up by state transfer; the STATE-RESPONSE it
  // receives carries the certified snapshot: client table + app state.
  ClusterOptions options;
  options.checkpoint_interval = 4;
  Cluster cluster(options, [](int) { return std::make_unique<LogStateMachine>(); });
  Client& client = cluster.add_client();
  cluster.crash_replica(3);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, BufView(to_bytes("op-" + std::to_string(i))))
                    .is_ok());
  }
  cluster.restart_replica(3);
  std::optional<Bytes> snapshot;
  cluster.network().set_inbound_filter(cluster.replica_id(3), [&](const net::Packet& p) {
    const Result<Envelope> env = Envelope::decode(p.payload);
    if (env.is_ok() && env.value().type == MsgType::kStateResponse && !snapshot) {
      const Result<StateResponseMsg> msg = StateResponseMsg::decode(env.value().body);
      if (msg.is_ok()) snapshot = msg.value().snapshot;
    }
    return true;
  });
  cluster.replica(3).request_catch_up();
  cluster.settle();
  ASSERT_TRUE(snapshot.has_value());
  expect_golden("snapshot.replica", *snapshot);
  EXPECT_EQ(cluster.replica(3).last_executed(), SeqNum(4));
}

/// A counter servant with persistence, so replacement ships its state.
class PersistentCounter : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:itdos/PCounter:1.0"; }
  void dispatch(const std::string& operation, const cdr::Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "add") value_ += arguments.elements()[0].as_int64();
    sink->reply(cdr::Value::int64(value_));
  }
  Result<Bytes> save_state() const override {
    cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
    enc.write_int64(value_);
    return enc.take();
  }
  Status load_state(ByteView state) override {
    cdr::Decoder dec(state, cdr::ByteOrder::kLittleEndian);
    ITDOS_ASSIGN_OR_RETURN(value_, dec.read_int64());
    return Status::ok();
  }

 private:
  std::int64_t value_ = 0;
};

TEST(WireGoldenTest, ReplacementBundlePlain) {
  ItdosSystem system;
  const DomainId domain = system.add_domain(1, VotePolicy::exact(),
                                            [](orb::ObjectAdapter& adapter, int) {
                                              (void)adapter.activate_with_key(
                                                  ObjectId(1),
                                                  std::make_shared<PersistentCounter>());
                                            });
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref = system.object_ref(domain, ObjectId(1), "IDL:itdos/PCounter:1.0");
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(system
                    .invoke_sync(client, ref, "add",
                                 cdr::Value::sequence({cdr::Value::int64(i * 11)}))
                    .is_ok());
  }
  system.crash_element(domain, 2);
  DomainElement& fresh = system.replace_element(domain, 2);
  std::map<NodeId, Bytes> plains;  // by sending peer
  system.network().set_inbound_filter(fresh.smiop_node(), [&](const net::Packet& p) {
    if (smiop_type(p.payload).value_or(SmiopType::kDirectReply) != SmiopType::kStateBundle) {
      return true;
    }
    const Result<StateBundleMsg> msg = StateBundleMsg::decode(p.payload);
    if (!msg.is_ok()) return true;
    const auto channel = crypto::SymmetricKey::from_bytes(
        system.keys().key_for(msg.value().element, fresh.smiop_node()));
    Result<Bytes> plain = crypto::open(channel, /*aad=*/{}, msg.value().sealed_bundle);
    if (plain.is_ok()) plains[msg.value().element] = std::move(plain).take();
    return true;
  });
  system.settle();
  ASSERT_TRUE(fresh.replacement_complete());
  ASSERT_GE(plains.size(), 2u);
  // Correct peers ship byte-identical bundles.
  for (const auto& [peer, plain] : plains) expect_golden("snapshot.bundle_plain", plain);
}

}  // namespace
}  // namespace itdos
