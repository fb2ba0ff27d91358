// Cluster-level tests for batch formation + pipelined agreement: batched
// correctness, same-seed formation determinism, the urgent-class latency
// bound, f-boundary behaviour with batching on, pipelined clients, view
// changes over in-flight batches, and state transfer across the batched
// snapshot format.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bft/harness.hpp"
#include "bft/replica.hpp"
#include "crypto/sha256.hpp"

namespace itdos::bft {
namespace {

ClusterOptions batched_options(int f = 1, std::uint64_t seed = 1) {
  ClusterOptions opts;
  opts.f = f;
  opts.seed = seed;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  opts.batch.max_entries = 8;
  opts.batch.max_hold_ns = micros(150);
  opts.pipeline_depth = 8;
  return opts;
}

Cluster::AppFactory counter_factory() {
  return [](int) { return std::make_unique<CounterStateMachine>(); };
}

Cluster::AppFactory log_factory() {
  return [](int) { return std::make_unique<LogStateMachine>(); };
}

/// Marks payloads starting with '!' urgent — a stand-in for the ITDOS
/// queue-management traffic class.
class UrgentAwareLog : public LogStateMachine {
 public:
  bool urgent(ByteView request) const override {
    return !request.empty() && request.front() == '!';
  }
};

// Drives `count` pipelined invocations from one client and settles.
int run_pipelined(Cluster& cluster, Client& client, int count,
                  const std::string& prefix = "add:1") {
  int completions = 0;
  for (int i = 0; i < count; ++i) {
    client.invoke(to_bytes(prefix), [&completions](Result<Bytes> r) {
      if (r.is_ok()) ++completions;
    });
  }
  cluster.settle();
  return completions;
}

TEST(BatchingTest, BatchedClusterExecutesEveryRequestOnce) {
  Cluster cluster(batched_options(), counter_factory());
  Client& client = cluster.add_client();
  EXPECT_EQ(run_pipelined(cluster, client, 40), 40);
  for (int rank = 0; rank < cluster.n(); ++rank) {
    const auto& app =
        dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app());
    EXPECT_EQ(app.value(), 40) << "rank " << rank;
  }
  EXPECT_EQ(client.inflight(), 0u);
}

TEST(BatchingTest, BatchesActuallyForm) {
  Cluster cluster(batched_options(), counter_factory());
  Client& client = cluster.add_client();
  ASSERT_EQ(run_pipelined(cluster, client, 40), 40);
  // With depth-8 clients feeding an 8-entry cap, multi-entry batches must
  // have formed: fewer slots than requests.
  EXPECT_LT(cluster.replica(1).last_executed().value, 40u);
  const auto& metrics = cluster.sim().telemetry().metrics();
  const telemetry::Histogram* sizes = metrics.find_histogram("batch.size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_GT(sizes->count(), 0u);
  EXPECT_GT(sizes->max(), 1u);
  const telemetry::Histogram* holds = metrics.find_histogram("batch.hold_ns");
  ASSERT_NE(holds, nullptr);
  EXPECT_GT(holds->count(), 0u);
}

TEST(BatchingTest, SameSeedSameBatchesByteStable) {
  // Formation determinism: identical seeds must yield byte-identical
  // replicated logs AND identical slot boundaries on every replica.
  const auto run = [](std::uint64_t seed) {
    Cluster cluster(batched_options(1, seed), log_factory());
    Client& a = cluster.add_client();
    Client& b = cluster.add_client();
    for (int i = 0; i < 15; ++i) {
      a.invoke(to_bytes("a" + std::to_string(i)), [](Result<Bytes>) {});
      b.invoke(to_bytes("b" + std::to_string(i)), [](Result<Bytes>) {});
    }
    cluster.settle();
    Bytes digest_input;
    const auto& app =
        dynamic_cast<const LogStateMachine&>(cluster.replica(0).app());
    for (const Bytes& entry : app.entries()) {
      append(digest_input, entry);
      digest_input.push_back(0x1f);
    }
    digest_input.push_back(
        static_cast<std::uint8_t>(cluster.replica(0).last_executed().value));
    return crypto::sha256(digest_input);
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_EQ(run(11), run(11));
}

TEST(BatchingTest, UrgentNeverHeldPastOneFlush) {
  // A lone non-urgent request waits out max_hold_ns; an urgent one must
  // flush immediately. Use a long hold so the two cases are far apart.
  ClusterOptions opts = batched_options();
  opts.batch.max_entries = 64;
  opts.batch.max_hold_ns = millis(20);
  Cluster cluster(opts, [](int) { return std::make_unique<UrgentAwareLog>(); });
  Client& client = cluster.add_client();

  const SimTime urgent_start = cluster.sim().now();
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("!urgent")).is_ok());
  const std::int64_t urgent_latency = cluster.sim().now() - urgent_start;
  EXPECT_LT(urgent_latency, millis(5));  // never held toward the 20ms cap

  const SimTime lazy_start = cluster.sim().now();
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("lazy")).is_ok());
  const std::int64_t lazy_latency = cluster.sim().now() - lazy_start;
  EXPECT_GE(lazy_latency, millis(20));  // held for batch-mates that never came
}

TEST(BatchingTest, FBoundaryToleratesExactlyFCrashes) {
  // f = 2: crashing 2 of 7 replicas must leave the batched pipeline live.
  Cluster cluster(batched_options(2, 3), counter_factory());
  cluster.crash_replica(5);
  cluster.crash_replica(6);
  Client& client = cluster.add_client();
  EXPECT_EQ(run_pipelined(cluster, client, 24), 24);
  const auto& app =
      dynamic_cast<const CounterStateMachine&>(cluster.replica(0).app());
  EXPECT_EQ(app.value(), 24);
}

TEST(BatchingTest, FPlusOneCrashesStallButDoNotDiverge) {
  Cluster cluster(batched_options(1, 5), counter_factory());
  cluster.crash_replica(2);
  cluster.crash_replica(3);  // f+1 down: no quorum possible
  Client& client = cluster.add_client();
  int completions = 0;
  client.invoke(to_bytes("add:1"), [&](Result<Bytes>) { ++completions; });
  cluster.sim().run_for(seconds(2));
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(cluster.replica(0).last_executed().value, 0u);
}

TEST(BatchingTest, ViewChangeOverInflightBatchesConverges) {
  // Kill the primary while pipelined batches are mid-agreement; the view
  // change must re-propose or retransmit every entry exactly once.
  Cluster cluster(batched_options(1, 9), counter_factory());
  Client& client = cluster.add_client();
  int completions = 0;
  for (int i = 0; i < 20; ++i) {
    client.invoke(to_bytes("add:1"), [&](Result<Bytes> r) {
      if (r.is_ok()) ++completions;
    });
  }
  cluster.sim().run_for(micros(200));  // let batches enter flight
  cluster.crash_replica(0);
  cluster.sim().run_for(seconds(10));
  cluster.settle();
  EXPECT_EQ(completions, 20);
  for (int rank = 1; rank < cluster.n(); ++rank) {
    const auto& app =
        dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app());
    EXPECT_EQ(app.value(), 20) << "rank " << rank;
    EXPECT_GE(cluster.replica(rank).view().value, 1u);
  }
}

TEST(BatchingTest, StateTransferAcrossBatchedCheckpoints) {
  // A restarted replica must install the batched-era snapshot (windowed
  // dedup marks + reply cache) and catch up.
  ClusterOptions opts = batched_options(1, 13);
  opts.checkpoint_interval = 4;
  Cluster cluster(opts, counter_factory());
  Client& client = cluster.add_client();
  ASSERT_EQ(run_pipelined(cluster, client, 16), 16);
  cluster.crash_replica(3);
  ASSERT_EQ(run_pipelined(cluster, client, 32), 32);
  cluster.restart_replica(3);
  ASSERT_EQ(run_pipelined(cluster, client, 16), 16);
  cluster.settle();
  const auto& restarted =
      dynamic_cast<const CounterStateMachine&>(cluster.replica(3).app());
  EXPECT_EQ(restarted.value(), 64);
}

TEST(BatchingTest, PipelinedClientKeepsWindowFull) {
  // Batch cap below the client window: the surplus must ride as extra
  // concurrent agreement slots rather than queueing behind slot one.
  ClusterOptions opts = batched_options();
  opts.batch.max_entries = 2;
  Cluster cluster(opts, counter_factory());
  Client& client = cluster.add_client();
  for (int i = 0; i < 12; ++i) {
    client.invoke(to_bytes("add:1"), [](Result<Bytes>) {});
  }
  // Depth 8: exactly 8 in flight, 4 queued before any reply lands.
  EXPECT_EQ(client.inflight(), 8u);
  cluster.settle();
  EXPECT_EQ(client.inflight(), 0u);
  const auto& gauges = cluster.sim().telemetry().metrics().gauges();
  const auto inflight = gauges.find("bft.1.inflight");
  ASSERT_NE(inflight, gauges.end());
  EXPECT_GT(inflight->second.peak(), 1);  // agreement instances overlapped
}

TEST(BatchingTest, DisabledBatchingMatchesLegacySingleSlotPath) {
  // Default options: one request per slot, depth-1 clients — the original
  // protocol. Sanity-check the refactor kept that path byte-for-byte sane.
  ClusterOptions opts;
  opts.f = 1;
  opts.seed = 21;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  Cluster cluster(opts, counter_factory());
  Client& client = cluster.add_client();
  for (int i = 1; i <= 6; ++i) {
    const Result<Bytes> r = cluster.invoke_sync(client, to_bytes("add:1"));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(to_string(r.value()), "VAL:" + std::to_string(i));
  }
  EXPECT_EQ(cluster.replica(0).last_executed().value, 6u);  // one slot each
}

TEST(BatchingTest, StalledWindowDoesNotSpinTheHoldTimer) {
  // Two crashed backups leave no commit quorum, so no checkpoint becomes
  // stable and the primary's watermark window fills while ripe requests
  // are still parked in the former. The primary must wait for a slot to
  // free (pumped from make_stable / state-transfer install) instead of
  // re-arming its hold timer every nanosecond.
  ClusterOptions opts = batched_options();
  opts.checkpoint_interval = 2;  // window of 4 slots
  opts.batch.max_entries = 2;
  opts.batch.max_hold_ns = micros(50);
  Cluster cluster(opts, counter_factory());
  cluster.crash_replica(2);
  cluster.crash_replica(3);
  for (int c = 0; c < 2; ++c) {
    Client& client = cluster.add_client();
    for (int i = 0; i < 8; ++i) client.invoke(to_bytes("add:1"), [](Result<Bytes>) {});
  }
  cluster.sim().run_for(millis(5));
  ASSERT_FALSE(cluster.replica(0).in_view_change());
  const std::uint64_t before = cluster.sim().events_executed();
  cluster.sim().run_for(millis(1));
  EXPECT_LT(cluster.sim().events_executed() - before, 100u);
}

TEST(BatchingTest, SnapshotInstallIntoLaterViewDropsParkedEntries) {
  // A primary cut off from its group keeps view 0 while the others move to
  // view 1 and execute past a checkpoint. A fresh client then fills the
  // stale primary's watermark window (4 slots), so the rest of its requests
  // park ripe in the former. Installing the group's snapshot frees the
  // window and moves the replica to view 1: the parked entries must die with
  // view 0 instead of going out as pre-prepares tagged with the dead view.
  ClusterOptions opts;
  opts.f = 1;
  opts.seed = 17;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  opts.checkpoint_interval = 2;
  opts.pipeline_depth = 8;
  Cluster cluster(opts, counter_factory());
  const NodeId stale = cluster.replica_id(0);
  for (int rank = 1; rank < cluster.n(); ++rank) {
    cluster.network().set_link(stale, cluster.replica_id(rank), false);
  }
  Client& early = cluster.add_client();
  cluster.network().set_link(stale, early.id(), false);
  ASSERT_EQ(run_pipelined(cluster, early, 6), 6);
  ASSERT_EQ(cluster.replica(1).view().value, 1u);
  ASSERT_EQ(cluster.replica(0).view().value, 0u);
  ASSERT_FALSE(cluster.replica(0).in_view_change());

  Client& late = cluster.add_client();  // still believes in view 0
  for (int i = 0; i < 8; ++i) late.invoke(to_bytes("add:1"), [](Result<Bytes>) {});
  cluster.sim().run_for(millis(1));

  std::vector<std::uint64_t> pre_prepare_views;
  cluster.network().set_interceptor(stale, [&](const net::Packet& packet) {
    Result<Envelope> env = Envelope::decode(packet.payload);
    if (env.is_ok() && env.value().type == MsgType::kPrePrepare) {
      Result<PrePrepareMsg> pp = PrePrepareMsg::decode(env.value().body);
      if (pp.is_ok()) pre_prepare_views.push_back(pp.value().view.value);
    }
    return std::optional<BufView>(packet.payload);
  });
  cluster.network().heal_all_links();
  cluster.replica(0).request_catch_up();
  cluster.sim().run_for(millis(10));

  EXPECT_EQ(cluster.replica(0).view().value, 1u);
  EXPECT_EQ(cluster.replica(0).last_executed().value, 6u);
  EXPECT_EQ(std::ranges::count(pre_prepare_views, 0u), 0);
}

class WindowFullTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowFullTest, WindowFullParksAndDrainsInOrder) {
  // A watermark window of 4 slots against a client window of 8: the primary
  // parks what it cannot assign and drains it as checkpoints turn stable —
  // through the same former whether formation is off (max_entries = 1) or
  // on, and without a view change. A fixed link delay keeps arrival order
  // equal to invocation order, so in-order draining shows as the i-th
  // request reading counter value i.
  ClusterOptions opts = batched_options();
  opts.net_config.min_delay_ns = micros(50);
  opts.net_config.max_delay_ns = micros(50);
  opts.checkpoint_interval = 2;
  opts.pipeline_depth = 8;
  opts.batch.max_entries = GetParam();
  Cluster cluster(opts, counter_factory());
  Client& client = cluster.add_client();
  constexpr int kRequests = 12;
  std::vector<std::string> results(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    client.invoke(to_bytes("add:1"), [&results, i](Result<Bytes> r) {
      if (r.is_ok()) results[static_cast<std::size_t>(i)] = to_string(r.value());
    });
  }
  cluster.settle();
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], "VAL:" + std::to_string(i + 1));
  }
  const auto& gauges = cluster.sim().telemetry().metrics().gauges();
  const auto inflight = gauges.find("bft.1.inflight");
  ASSERT_NE(inflight, gauges.end());
  EXPECT_EQ(inflight->second.peak(), 4);  // the window, never past it
  EXPECT_EQ(cluster.replica(0).view().value, 0u);
  if (GetParam() == 1) {
    EXPECT_EQ(cluster.replica(0).last_executed().value, 12u);  // one slot each
  }
}

INSTANTIATE_TEST_SUITE_P(MaxEntries, WindowFullTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace itdos::bft
