// A synchronous invocation that times out leaves its request pending: the
// BFT client keeps retransmitting and the ITDOS voter keeps waiting. When the
// partition that caused the timeout heals, the completion fires long after
// invoke_sync returned. These tests drive exactly that and must stay clean
// under ASan with detect_stack_use_after_return=1 (tests/CMakeLists.txt sets
// it for this binary): a completion that wrote into invoke_sync's returned
// frame would be reported there.
#include "bft/harness.hpp"
#include "itdos/system.hpp"
#include "read_counter.hpp"

#include <gtest/gtest.h>

namespace itdos {
namespace {

TEST(LateCompletionTest, ClusterInvokeSyncToleratesCommitAfterTimeout) {
  bft::ClusterOptions options;
  options.f = 1;
  options.seed = 1;
  std::vector<bft::CounterStateMachine*> machines;
  bft::Cluster cluster(options, [&machines](int) {
    auto machine = std::make_unique<bft::CounterStateMachine>();
    machines.push_back(machine.get());
    return machine;
  });
  bft::Client& client = cluster.add_client();
  for (int rank = 0; rank < cluster.n(); ++rank) {
    cluster.network().set_link(client.id(), cluster.replica_id(rank), false);
  }

  const Result<Bytes> timed_out =
      cluster.invoke_sync(client, to_bytes("add:1"), millis(100));
  ASSERT_FALSE(timed_out.is_ok());
  EXPECT_EQ(timed_out.status().code(), Errc::kUnavailable);
  EXPECT_EQ(client.inflight(), 1u);

  // A retransmission after the heal commits the request; its completion is
  // the late write.
  cluster.network().heal_all_links();
  cluster.settle();
  EXPECT_EQ(client.inflight(), 0u);
  for (const bft::CounterStateMachine* machine : machines) {
    EXPECT_EQ(machine->value(), 1);
  }
}

class SumServant : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:test/Sum:1.0"; }
  void dispatch(const std::string&, const cdr::Value& args, orb::ServerContext&,
                orb::ReplySinkPtr sink) override {
    std::int64_t sum = 0;
    for (const auto& v : args.elements()) sum += v.as_int64();
    sink->reply(cdr::Value::int64(sum));
  }
};

TEST(LateCompletionTest, SystemInvokeSyncToleratesReplyAfterTimeout) {
  core::SystemOptions options;
  options.seed = 1;
  core::ItdosSystem system(options);
  const DomainId domain = system.add_domain(
      1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
        ASSERT_TRUE(
            adapter.activate_with_key(ObjectId(1), std::make_shared<SumServant>())
                .is_ok());
      });
  core::ItdosClient& client = system.add_client();
  const orb::ObjectRef ref = system.object_ref(domain, ObjectId(1), "IDL:test/Sum:1.0");
  const auto args = [] {
    return cdr::Value::sequence({cdr::Value::int64(40), cdr::Value::int64(2)});
  };
  // The first call opens the connection, so every client endpoint exists
  // before the partition is drawn around them.
  ASSERT_TRUE(system.invoke_sync(client, ref, "add", args()).is_ok());

  std::set<NodeId> client_nodes{client.smiop_node()};
  for (const NodeId node : client.party().transport_nodes()) client_nodes.insert(node);
  std::set<NodeId> element_nodes;
  for (const core::ElementInfo& element : system.directory().find_domain(domain)->elements) {
    element_nodes.insert(element.bft_node);
    element_nodes.insert(element.smiop_node);
  }
  system.network().partition(client_nodes, element_nodes);

  const Result<cdr::Value> timed_out =
      system.invoke_sync(client, ref, "add", args(), millis(100));
  ASSERT_FALSE(timed_out.is_ok());
  EXPECT_EQ(timed_out.status().code(), Errc::kUnavailable);
  EXPECT_EQ(read_counter(system.sim(), "smiop", client.smiop_node(), "votes_decided"), 1u);

  // After the heal the ordering client's retransmission gets through and
  // the replies are voted; that decision is the late completion.
  system.network().heal_all_links();
  system.settle();
  EXPECT_EQ(read_counter(system.sim(), "smiop", client.smiop_node(), "votes_decided"), 2u);
}

}  // namespace
}  // namespace itdos
