// Metric names are the only read API (DESIGN.md §6): the benchmark's
// per-layer counts, the response controller's suspicion input and the fault
// injector's queue-depth probe all find their inputs by name. This test pins
// every name those readers use after a short ITDOS run plus one recovery
// cycle, so a rename fails here instead of silently reading zero.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdr/wire.hpp"
#include "itdos/system.hpp"
#include "recovery/recovery_manager.hpp"

namespace itdos {
namespace {

/// Adds its argument to a running total; persistent, so a replacement
/// element can install it from peer bundles.
class Accumulator : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:test/Acc:1.0"; }

  void dispatch(const std::string&, const cdr::Value& arguments, orb::ServerContext&,
                orb::ReplySinkPtr sink) override {
    total_ += arguments.elements()[0].as_int64();
    sink->reply(cdr::Value::int64(total_));
  }

  Result<Bytes> save_state() const override { return wire::encode(total_); }

  Status load_state(ByteView state) override {
    ITDOS_ASSIGN_OR_RETURN(total_, wire::decode<std::int64_t>(state));
    return Status::ok();
  }

 private:
  std::int64_t total_ = 0;
};

// Counter names read whole, and (prefix, suffix) counter scans, as
// perfbench/episode.cpp's sum()/max_of() and the controller's
// read_inputs() (src/control/controller.cpp) spell them.
const std::vector<std::string_view> kWholeNames = {
    "net.packets_delivered", "net.bytes_delivered", "recovery.completed",
    "recovery.aborted"};
const std::vector<std::pair<std::string_view, std::string_view>> kScans = {
    {"bft.", ".macs_computed"},     {"bft.", ".pre_prepares_sent"},
    {"bft.", ".new_views_sent"},    {"bft.", ".state_transfers"},
    {"smiop.", ".votes_decided"},   {"smiop.", ".replies_received"},
    {"smiop.", ".votes_timed_out"}, {"gm.", ".expulsions"},
    {"gm.", ".rekeys"},             {"", ".faults_detected"},
    {"", ".votes_timed_out"},       {"", ".change_requests_sent"}};
const std::vector<std::string_view> kHistograms = {
    "batch.size", "batch.hold_ns", "recovery.mttr_ns", "smiop.request_latency_ns"};

class MetricNamesTest : public ::testing::Test {
 protected:
  MetricNamesTest() {
    domain_ = system_.add_domain(1, core::VotePolicy::exact(),
                                 [](orb::ObjectAdapter& adapter, int) {
                                   (void)adapter.activate_with_key(
                                       ObjectId(1), std::make_shared<Accumulator>());
                                 });
    core::ItdosClient& client = system_.add_client();
    const orb::ObjectRef ref = system_.object_ref(domain_, ObjectId(1), "IDL:test/Acc:1.0");
    const cdr::Value one = cdr::Value::sequence({cdr::Value::int64(1)});
    EXPECT_TRUE(system_.invoke_sync(client, ref, "add", one, seconds(30)).is_ok());
    recovery::RecoveryManager manager(system_);
    manager.recover_now(domain_, 0);
    system_.settle();
    EXPECT_EQ(manager.stats().completed, 1u);
    EXPECT_TRUE(system_.invoke_sync(client, ref, "add", one, seconds(30)).is_ok());
  }

  const telemetry::MetricsRegistry& registry() {
    return system_.sim().telemetry().metrics();
  }

  core::ItdosSystem system_;
  DomainId domain_;
};

TEST_F(MetricNamesTest, EveryNameAReaderUsesIsRegistered) {
  const telemetry::MetricsRegistry& reg = registry();
  for (const std::string_view name : kWholeNames) {
    EXPECT_NE(reg.find_counter(name), nullptr) << name;
  }
  for (const auto& [prefix, suffix] : kScans) {
    int matches = 0;
    for (const auto& [name, counter] : reg.counters()) {
      if (name.starts_with(prefix) && name.ends_with(suffix)) ++matches;
    }
    EXPECT_GT(matches, 0) << "no counter matches " << prefix << "*" << suffix;
  }
  for (const std::string_view name : kHistograms) {
    EXPECT_NE(reg.find_histogram(name), nullptr) << name;
  }
  // The fault injector picks its overload target by queue.<node>.depth, and
  // the scenarios sum admission.<node>.shed, for every current element.
  for (int rank = 0; rank < system_.domain_n(domain_); ++rank) {
    const std::string node = system_.element(domain_, rank).smiop_node().to_string();
    EXPECT_TRUE(reg.gauges().contains("queue." + node + ".depth")) << node;
    EXPECT_TRUE(reg.gauges().contains("admission." + node + ".shed")) << node;
  }
}

TEST_F(MetricNamesTest, ElementCountersMatchNoScan) {
  // No reader scans the element.* prefix, so only a suffix could pull an
  // element counter into a sum (the controller's scans have no prefix).
  int element_names = 0;
  for (const auto& [name, counter] : registry().counters()) {
    if (!name.starts_with("element.")) continue;
    ++element_names;
    for (const auto& [prefix, suffix] : kScans) {
      EXPECT_FALSE(name.ends_with(suffix)) << name << " ends with " << suffix;
    }
  }
  // 4 elements plus the replacement identity, 11 counters each.
  EXPECT_EQ(element_names, 5 * 11);
}

}  // namespace
}  // namespace itdos
