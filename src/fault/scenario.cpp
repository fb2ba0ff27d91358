#include "fault/scenario.hpp"

#include <functional>
#include <optional>
#include <set>
#include <stdexcept>

#include "bft/harness.hpp"
#include "control/controller.hpp"
#include "fault/injector.hpp"
#include "itdos/system.hpp"
#include "recovery/proactive.hpp"
#include "shard/bank.hpp"

namespace itdos::fault {
namespace {

/// The fields every scenario reports; callers add their own.
ScenarioResult base_result(const std::string& name, std::uint64_t seed,
                           const Oracle& oracle, const telemetry::Hub& hub,
                           std::size_t sent, std::size_t completed) {
  ScenarioResult result;
  result.name = name;
  result.seed = seed;
  result.violations = oracle.violations();
  result.requests_sent = sent;
  result.requests_completed = completed;
  result.view_changes = hub.tracer().count(telemetry::TraceKind::kBftNewView);
  result.trace_jsonl = hub.tracer().export_jsonl();
  return result;
}

// ---------------------------------------------------------------------------
// BFT-cluster scenarios: a 3f+1 replica group ordering counter increments
// while the adversary works the network / individual replicas.
// ---------------------------------------------------------------------------

constexpr int kClusterRequests = 8;

ScenarioResult run_cluster(const std::string& name, std::uint64_t seed,
                           FaultPlan plan, int requests,
                           std::int64_t grace_after_heal,
                           const std::function<void(bft::ClusterOptions&)>& tune = {}) {
  bft::ClusterOptions options;
  options.f = 1;
  options.seed = seed;
  if (tune) tune(options);
  bft::Cluster cluster(options, [](int) {
    return std::make_unique<bft::CounterStateMachine>();
  });

  // Translate replica ranks to node ids now that the cluster exists.
  std::set<int> faulty_ranks;
  for (const ReplicaFault& fault : plan.replica_faults) {
    faulty_ranks.insert(fault.rank);
  }

  plan.seed = seed;
  FaultInjector injector(cluster.network(), plan);
  injector.arm_links();
  for (const ReplicaFault& fault : injector.plan().replica_faults) {
    injector.arm_replica(fault, cluster.replica(fault.rank));
  }

  Oracle oracle(cluster.sim().telemetry());
  for (int rank = 0; rank < cluster.n(); ++rank) {
    if (!faulty_ranks.contains(rank)) {
      oracle.watch_replica(0, cluster.replica(rank));
    }
  }

  bft::Client& client = cluster.add_client();
  auto completed = std::make_shared<std::size_t>(0);
  for (int i = 0; i < requests; ++i) {
    // The outcome slot outlives this frame via shared_ptr: under faults a
    // completion may fire long after any particular drive step.
    client.invoke(to_bytes("add:1"), [completed](Result<Bytes> result) {
      if (result.is_ok()) ++*completed;
    });
  }

  const SimTime deadline{injector.plan().heal_time.ns + grace_after_heal};
  cluster.sim().run_until(injector.plan().heal_time);
  while (*completed < static_cast<std::size_t>(requests) &&
         cluster.sim().now() < deadline && !cluster.sim().idle()) {
    cluster.sim().run_for(millis(50));
  }
  oracle.check_liveness(*completed, static_cast<std::size_t>(requests));
  return base_result(name, seed, oracle, cluster.sim().telemetry(),
                     static_cast<std::size_t>(requests), *completed);
}

std::set<NodeId> cluster_nodes(const std::set<int>& ranks) {
  // bft::Cluster assigns replica node ids 1..3f+1 in rank order.
  std::set<NodeId> nodes;
  for (int rank : ranks) nodes.insert(NodeId(static_cast<std::uint64_t>(rank + 1)));
  return nodes;
}

FaultPlan all_links_plan(int n, const std::function<void(LinkFault&)>& configure) {
  FaultPlan plan;
  plan.heal_time = SimTime{seconds(2)};
  for (int rank = 0; rank < n; ++rank) {
    LinkFault fault;
    fault.from_node = NodeId(static_cast<std::uint64_t>(rank + 1));
    fault.window.until = plan.heal_time;
    configure(fault);
    plan.link_faults.push_back(fault);
  }
  return plan;
}

/// Cuts replica `rank` from the other three over [form, heal).
PartitionWindow isolate_rank(int rank, SimTime form, SimTime heal) {
  std::set<int> rest{0, 1, 2, 3};
  rest.erase(rank);
  return {cluster_nodes({rank}), cluster_nodes(rest), form, heal};
}

ScenarioResult scenario_drop_storm(std::uint64_t seed) {
  FaultPlan plan = all_links_plan(4, [](LinkFault& fault) {
    fault.drop = 0.25;
  });
  return run_cluster("drop_storm", seed, std::move(plan), kClusterRequests,
                     seconds(10));
}

ScenarioResult scenario_delay_spike(std::uint64_t seed) {
  FaultPlan plan = all_links_plan(4, [](LinkFault& fault) {
    fault.delay_probability = 0.5;
    fault.delay_min_ns = millis(5);
    fault.delay_max_ns = millis(40);
  });
  return run_cluster("delay_spike", seed, std::move(plan), kClusterRequests,
                     seconds(10));
}

ScenarioResult scenario_duplicate_flood(std::uint64_t seed) {
  FaultPlan plan = all_links_plan(4, [](LinkFault& fault) {
    fault.duplicate = 0.5;
  });
  return run_cluster("duplicate_flood", seed, std::move(plan),
                     kClusterRequests, seconds(10));
}

ScenarioResult scenario_corrupt_link(std::uint64_t seed) {
  // One replica's outbound traffic is bit-flipped half the time; MACs reject
  // the garbage and retransmissions recover the rest.
  FaultPlan plan;
  plan.heal_time = SimTime{seconds(2)};
  plan.link_faults.push_back(
      {.from_node = NodeId(2), .window = {.until = plan.heal_time}, .corrupt = 0.5});
  return run_cluster("corrupt_link", seed, std::move(plan), kClusterRequests,
                     seconds(10));
}

ScenarioResult scenario_partition_minority(std::uint64_t seed) {
  FaultPlan plan;
  plan.heal_time = SimTime{seconds(1)};
  // Formed before the first commit, or nothing is stressed.
  plan.partitions.push_back(isolate_rank(3, SimTime{0}, plan.heal_time));
  return run_cluster("partition_minority", seed, std::move(plan),
                     kClusterRequests, seconds(10));
}

ScenarioResult scenario_partition_primary(std::uint64_t seed) {
  // Isolating the view-0 primary forces a view change; requests must still
  // complete once the group re-forms around the new primary.
  FaultPlan plan;
  plan.heal_time = SimTime{millis(1500)};
  // Formed before the first commit, or nothing is stressed.
  plan.partitions.push_back(isolate_rank(0, SimTime{0}, plan.heal_time));
  return run_cluster("partition_primary", seed, std::move(plan),
                     kClusterRequests, seconds(12));
}

ScenarioResult scenario_silent_replica(std::uint64_t seed) {
  FaultPlan plan;  // nothing heals; f = 1 absorbs the fault
  plan.replica_faults.push_back({.rank = 3, .silent = true});
  return run_cluster("silent_replica", seed, std::move(plan),
                     kClusterRequests, seconds(10));
}

ScenarioResult scenario_corrupt_mac_replica(std::uint64_t seed) {
  // A replica whose authenticators never verify is indistinguishable from a
  // silent one to its peers — the quorum math must absorb it.
  FaultPlan plan;
  plan.replica_faults.push_back({.rank = 3, .corrupt_macs = true});
  return run_cluster("corrupt_mac_replica", seed, std::move(plan),
                     kClusterRequests, seconds(10));
}

/// The view-0 primary sends conflicting pre-prepares per backup for the
/// first second.
FaultPlan equivocating_primary_plan() {
  FaultPlan plan;
  plan.heal_time = SimTime{seconds(1)};
  plan.replica_faults.push_back(
      {.rank = 0, .window = {.until = plan.heal_time}, .equivocate = true});
  return plan;
}

ScenarioResult scenario_equivocating_primary(std::uint64_t seed) {
  // No quorum can form, the view-change timeout fires, and the next primary
  // takes over (Castro-Liskov's documented recovery; DESIGN.md §ordering).
  return run_cluster("equivocating_primary", seed, equivocating_primary_plan(),
                     kClusterRequests, seconds(12));
}

/// Batch-formation + pipelined-agreement knobs for the batched fault
/// scenarios: multi-entry slots with several agreement instances in flight.
void batched_tuning(bft::ClusterOptions& options) {
  options.batch.max_entries = 4;
  options.batch.max_hold_ns = micros(150);
  options.pipeline_depth = 8;
}

ScenarioResult scenario_batch_equivocating_primary(std::uint64_t seed) {
  // Same documented recovery as equivocating_primary, but the lie is now a
  // per-backup mutation of a batch ENTRY (digest recomputed, batch still
  // well-formed): prepare quorums cannot form on conflicting batch digests,
  // the view change fires, and the whole batch is either re-proposed
  // atomically by the next primary or retransmitted by the clients. The
  // oracle asserts no divergent execution and no partial entry survival.
  return run_cluster("batch_equivocating_primary", seed,
                     equivocating_primary_plan(), 16, seconds(12),
                     batched_tuning);
}

ScenarioResult scenario_viewchange_mid_pipeline(std::uint64_t seed) {
  // The view-0 primary is partitioned away AFTER the pipelined batches have
  // entered flight: several uncommitted agreement instances straddle the
  // view change. Every parked and in-flight entry must resurface exactly
  // once under the new primary (re-proposal from prepared proofs or client
  // retransmission after the dedup-horizon reset).
  FaultPlan plan;
  plan.heal_time = SimTime{millis(1500)};
  // Formed while the first batches are mid-agreement.
  plan.partitions.push_back(isolate_rank(0, SimTime{micros(250)}, plan.heal_time));
  return run_cluster("viewchange_mid_pipeline", seed, std::move(plan), 20,
                     seconds(12), batched_tuning);
}

ScenarioResult scenario_stale_view_replay(std::uint64_t seed) {
  // Phase 1: a brief primary partition forces a real view change, arming
  // every replica with a signed VIEW-CHANGE envelope. Phase 2: replica 2
  // replays its stale envelope every 100ms; correct peers must discard the
  // replays without spurious view changes or lost liveness.
  FaultPlan plan;
  plan.heal_time = SimTime{seconds(2)};
  plan.partitions.push_back(isolate_rank(0, SimTime{0}, SimTime{millis(500)}));
  plan.replica_faults.push_back(
      {.rank = 2,
       .window = {.from = SimTime{millis(600)}, .until = plan.heal_time},
       .stale_replay_period_ns = millis(100)});
  return run_cluster("stale_view_replay", seed, std::move(plan),
                     kClusterRequests, seconds(12));
}

// ---------------------------------------------------------------------------
// ITDOS scenarios: the full stack — SMIOP connections, unmarshalled voting,
// Group Manager detection / expulsion / rekey — plus recovery (src/recovery/,
// DESIGN.md §6d), sharded deployments (§6g) and admission control (§6f).
// ---------------------------------------------------------------------------

class SumServant : public orb::Servant {
 public:
  static constexpr const char* kInterface = "IDL:fault/Sum:1.0";
  std::string interface_name() const override { return kInterface; }
  void dispatch(const std::string&, const cdr::Value& args, orb::ServerContext&,
                orb::ReplySinkPtr sink) override {
    std::int64_t sum = 0;
    for (const auto& v : args.elements()) sum += v.as_int64();
    sink->reply(cdr::Value::int64(sum));
  }
};

/// A stateful accumulator WITH persistence: recovery scenarios must move real
/// servant state through the f+1 byte-identical bundle certification.
class PersistentSum : public orb::Servant {
 public:
  static constexpr const char* kInterface = "IDL:fault/PSum:1.0";
  std::string interface_name() const override { return kInterface; }

  void dispatch(const std::string& operation, const cdr::Value& args,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "add") {
      for (const auto& v : args.elements()) total_ += v.as_int64();
    }
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

cdr::Value int_args(std::initializer_list<std::int64_t> values) {
  std::vector<cdr::Value> elems;
  for (const std::int64_t v : values) elems.push_back(cdr::Value::int64(v));
  return cdr::Value::sequence(std::move(elems));
}

std::uint64_t sum_shed_gauges(const telemetry::MetricsRegistry& registry) {
  std::uint64_t total = 0;
  for (const auto& [gauge_name, gauge] : registry.gauges()) {
    if (gauge_name.starts_with("admission.") && gauge_name.ends_with(".shed")) {
      total += static_cast<std::uint64_t>(gauge.value());
    }
  }
  return total;
}

/// The deployment every ITDOS-stack scenario drives: the system, the
/// injector that works it and the oracle that referees it. A scenario runs
/// the steps in its own order, because node ids and the simulator's event
/// sequence numbers follow that order: add_domain (or build a bank on
/// `system`), arm, watch, add_client, call, finish.
struct Rig {
  explicit Rig(std::uint64_t run_seed, core::SystemOptions options = {})
      : seed(run_seed), system(seeded(std::move(options), run_seed)),
        oracle(system.sim().telemetry()) {}

  static core::SystemOptions seeded(core::SystemOptions options, std::uint64_t seed) {
    options.seed = seed;
    return options;
  }

  /// A one-object domain (f = 1, exact voting): every element hosts a fresh
  /// `Servant` under key 1. Returns the domain and the object's reference.
  template <class Servant>
  std::pair<DomainId, orb::ObjectRef> add_domain() {
    const DomainId domain = system.add_domain(
        1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
          // Key 1 is free in a freshly built domain; activation cannot fail.
          (void)adapter.activate_with_key(ObjectId(1), std::make_shared<Servant>());
        });
    return {domain, system.object_ref(domain, ObjectId(1), Servant::kInterface)};
  }

  /// Arms every fault of `plan` (seeded with the run's seed): element and
  /// adaptive faults against `domain`, client faults against
  /// `clients[client_index]`.
  void arm(FaultPlan plan, DomainId domain,
           const std::vector<core::ItdosClient*>& clients = {}) {
    plan.seed = seed;
    injector.emplace(system.network(), std::move(plan));
    injector->arm_links();
    for (const ElementFault& fault : injector->plan().element_faults) {
      injector->arm_element(fault, system, domain);
      if (fault.kind == ElementFault::Kind::kDissentingReplies) {
        dissenters.insert({domain, fault.rank});
      }
    }
    for (const GmFault& fault : injector->plan().gm_faults) {
      injector->arm_gm(fault, system);
    }
    for (const AdaptiveFault& fault : injector->plan().adaptive_faults) {
      injector->arm_adaptive(fault, system, domain);
    }
    for (const ClientFault& fault : injector->plan().client_faults) {
      injector->arm_client(fault, *clients.at(fault.client_index));
    }
  }

  /// Watches `manager` with the oracle; finish() then also checks that every
  /// recovering domain is back at 3f+1 and reports the manager's counts.
  void watch_recovery(recovery::RecoveryManager& manager) {
    oracle.watch_recovery(manager);
    recovery_manager = &manager;
  }

  /// Watches the GM elements (group 0) and every correct element of
  /// `domains` (groups 1, 2, ... in order). Dissenting elements are not
  /// correct, so they are not watched.
  void watch(const std::vector<DomainId>& domains) {
    for (int i = 0; i < system.gm_n(); ++i) {
      oracle.watch_replica(0, system.gm_element(i).replica());
      oracle.watch_gm(system.gm_element(i));
    }
    int group = 1;
    for (const DomainId domain : domains) {
      for (int rank = 0; rank < system.domain_n(domain); ++rank) {
        if (!dissenters.contains({domain, rank})) {
          oracle.watch_replica(group, system.element(domain, rank).replica());
        }
      }
      ++group;
    }
  }

  core::ItdosClient& add_client() {
    core::ItdosClient& client = system.add_client();
    oracle.watch_party(client.party());
    return client;
  }

  /// One synchronous invocation; it completes if it returns `expect` (any
  /// value when `expect` is empty).
  void call(core::ItdosClient& client, const orb::ObjectRef& ref,
            const std::string& operation, cdr::Value args,
            std::optional<std::int64_t> expect = std::nullopt,
            std::int64_t timeout_ns = seconds(30)) {
    ++sent;
    const Result<cdr::Value> result =
        system.invoke_sync(client, ref, operation, std::move(args), timeout_ns);
    if (result.is_ok() && (!expect || result.value().as_int64() == *expect)) {
      ++completed;
    }
  }

  /// Settles the run, applies the final oracle checks and fills the fields
  /// every ITDOS scenario reports.
  ScenarioResult finish(const std::string& name) {
    system.settle();
    oracle.check_liveness(completed, sent);
    const core::GmStateMachine& gm = system.gm_element(0).state();
    oracle.check_expulsions(gm);
    if (recovery_manager != nullptr) oracle.check_membership(gm, system.directory());

    const telemetry::Hub& hub = system.sim().telemetry();
    ScenarioResult result = base_result(name, seed, oracle, hub, sent, completed);
    result.expulsions = gm.expulsions();
    result.detection = result.expulsions > 0;
    result.rekeys = hub.tracer().count(telemetry::TraceKind::kGmRekey);
    result.membership_updates =
        hub.tracer().count(telemetry::TraceKind::kGmMembershipUpdate);
    if (recovery_manager != nullptr) {
      const recovery::RecoveryStats stats = recovery_manager->stats();
      result.recoveries_started = stats.started;
      result.recoveries_completed = stats.completed;
      result.recoveries_aborted = stats.aborted;
      result.last_mttr_ns = stats.last_mttr_ns;
    }
    result.sheds = sum_shed_gauges(hub.metrics());
    result.adaptive_retargets = injector ? injector->retargets() : 0;
    return result;
  }

  /// `element.<node>.entries_discarded` of each current element of
  /// `domain`, by rank.
  std::vector<std::uint64_t> element_discards(DomainId domain) {
    const auto& counters = system.sim().telemetry().metrics().counters();
    std::vector<std::uint64_t> discards;
    for (int rank = 0; rank < system.domain_n(domain); ++rank) {
      const NodeId node = system.element(domain, rank).smiop_node();
      discards.push_back(
          counters.at("element." + node.to_string() + ".entries_discarded").value());
    }
    return discards;
  }

  std::uint64_t seed;
  core::ItdosSystem system;
  Oracle oracle;
  std::optional<FaultInjector> injector;
  std::set<std::pair<DomainId, int>> dissenters;
  recovery::RecoveryManager* recovery_manager = nullptr;
  std::size_t sent = 0;
  std::size_t completed = 0;
};

/// The single-domain run: a SumServant domain, the plan `build_plan` makes
/// for it, and `requests` serial adds from one client. Plans that target
/// specific endpoints need the directory's node ids, which exist only once
/// the deployment is up.
ScenarioResult run_itdos_with(
    const std::string& name, std::uint64_t seed,
    const std::function<FaultPlan(const core::ItdosSystem&, DomainId)>& build_plan,
    int requests) {
  Rig rig(seed);
  const auto [domain, ref] = rig.add_domain<SumServant>();
  rig.arm(build_plan(rig.system, domain), domain);
  rig.watch({domain});
  core::ItdosClient& client = rig.add_client();
  for (int i = 0; i < requests; ++i) {
    rig.call(client, ref, "add", int_args({i, 7}), i + 7);
  }
  return rig.finish(name);
}

ScenarioResult run_itdos(const std::string& name, std::uint64_t seed,
                         FaultPlan plan, int requests) {
  return run_itdos_with(
      name, seed,
      [&plan](const core::ItdosSystem&, DomainId) { return std::move(plan); },
      requests);
}

ScenarioResult scenario_expel_rekey_e2e(std::uint64_t seed) {
  // The paper's §3.6 -> §3.5 pipeline end-to-end: a dissenting element is
  // outvoted, detected from the signed-message proof, expelled, and keyed
  // out by an epoch rekey — all while the client keeps getting right
  // answers. Misbehavior is sticky; expulsion IS the heal.
  FaultPlan plan;
  plan.element_faults.push_back(
      {.rank = 2, .kind = ElementFault::Kind::kDissentingReplies});
  return run_itdos("expel_rekey_e2e", seed, std::move(plan), 4);
}

ScenarioResult scenario_bogus_change_request(std::uint64_t seed) {
  // One element of a replicated domain files a change_request framing a
  // correct peer. Replicated reporters are only believed at f+1 matching
  // reports (§3.6), so a lone rogue must never trigger an expulsion.
  FaultPlan plan;
  plan.heal_time = SimTime{millis(100)};
  plan.element_faults.push_back(
      {.rank = 1,
       .kind = ElementFault::Kind::kBogusChangeRequests,
       .at = SimTime{millis(50)},  // after the first connection exists
       .victim_rank = 0});
  return run_itdos("bogus_change_request", seed, std::move(plan), 4);
}

ScenarioResult scenario_share_starvation(std::uint64_t seed) {
  // One element's SMIOP endpoint is cut off from every Group Manager
  // element for the whole run, so its connection-key shares never arrive
  // (and neither do the re-sent ones). The element still participates in
  // BFT ordering: it consumes the first sealed request, finds no key, and
  // files an authoritative resend request with the GM (§3.4). The run is
  // long enough (requests >> lag_window) that queue GC eventually declares
  // the stalled element dead and passes its consumption point: its own
  // queue marks virtual synchrony broken, every peer's laggard hook files a
  // change request, and the f+1 matching reports expel it (§3.6) — all
  // while the remaining three elements keep the client fully live. This is
  // the long-horizon scenario: BFT checkpoints, queue GC, laggard
  // detection and the virtual-synchrony break all only appear past ~130
  // ordered entries. Expulsion IS the heal.
  return run_itdos_with(
      "share_starvation", seed,
      [](const core::ItdosSystem& system, DomainId domain) {
        PartitionWindow window;
        window.side_a.insert(system.directory().find_domain(domain)->elements[1].smiop_node);
        for (const core::ElementInfo& gm : system.directory().gm().elements) {
          window.side_b.insert(gm.smiop_node);
        }
        window.heal = SimTime{seconds(30)};  // far past the run's traffic
        FaultPlan plan;
        plan.partitions.push_back(window);
        return plan;
      },
      150);
}

ScenarioResult scenario_gm_withhold_shares(std::uint64_t seed) {
  FaultPlan plan;
  plan.gm_faults.push_back({.index = 0, .withhold_shares = true});
  return run_itdos("gm_withhold_shares", seed, std::move(plan), 4);
}

ScenarioResult scenario_gm_corrupt_shares(std::uint64_t seed) {
  FaultPlan plan;
  plan.gm_faults.push_back({.index = 0, .corrupt_shares = true});
  return run_itdos("gm_corrupt_shares", seed, std::move(plan), 4);
}

struct RecoverySpec {
  bool dissent = false;           // rank 2 dissents -> proof-based expulsion
  bool corrupt_bundles = false;   // rank 0 serves corrupt state offers
  bool partition_joiner = false;  // isolate the joining identity mid-onboarding
  bool proactive = false;         // scheduler-driven rejuvenation, no faults
};

ScenarioResult run_recovery(const std::string& name, std::uint64_t seed,
                            const RecoverySpec& spec) {
  Rig rig(seed);
  const auto [domain, ref] = rig.add_domain<PersistentSum>();
  core::ItdosSystem& system = rig.system;

  FaultPlan plan;  // expulsion + replacement IS the heal
  if (spec.dissent) {
    plan.element_faults.push_back(
        {.rank = 2, .kind = ElementFault::Kind::kDissentingReplies});
  }
  if (spec.corrupt_bundles) {
    plan.element_faults.push_back(
        {.rank = 0, .kind = ElementFault::Kind::kCorruptStateBundles});
  }
  rig.arm(std::move(plan), domain);

  recovery::RecoveryConfig config =
      recovery::RecoveryConfig::from_timing(system.directory().timing());
  if (spec.partition_joiner) {
    // Tight enough that attempt 1 watchdog-aborts INSIDE the partition and
    // the retry completes after the heal; the multi-attempt budget the
    // oracle learns stays above the healed-path MTTR.
    config.deadline_ns = millis(400);
    config.retry_backoff_ns = millis(50);
  }
  recovery::RecoveryManager manager(system, config);
  manager.watch();
  rig.watch_recovery(manager);
  rig.watch({domain});

  // The partition attack forms around identities that only exist once the
  // manager picks them, so it triggers off the first kStarted event: the
  // joining identity (reused BFT slot + fresh SMIOP endpoint) is cut off
  // from its domain peers, then healed at a fixed offset.
  auto partitioned = std::make_shared<bool>(false);
  if (spec.partition_joiner) {
    manager.add_listener([&system, domain,
                          partitioned](const recovery::RecoveryEvent& event) {
      if (event.kind != recovery::RecoveryEvent::Kind::kStarted || *partitioned) {
        return;
      }
      *partitioned = true;
      const core::DomainInfo* info = system.directory().find_domain(domain);
      std::set<NodeId> joiner{info->elements[event.rank].bft_node,
                              event.admitted};
      std::set<NodeId> peers;
      for (int rank = 0; rank < static_cast<int>(info->elements.size()); ++rank) {
        if (rank == event.rank) continue;
        peers.insert(info->elements[rank].bft_node);
        peers.insert(info->elements[rank].smiop_node);
      }
      system.network().partition(joiner, peers);
      system.sim().schedule_after(millis(600), [&system, joiner, peers] {
        for (NodeId a : joiner) {
          for (NodeId b : peers) system.network().set_link(a, b, true);
        }
      });
    });
  }

  core::ItdosClient& client = rig.add_client();
  const auto drive = [&](int count) {
    for (int i = 0; i < count; ++i) rig.call(client, ref, "add", int_args({1}));
  };

  std::optional<recovery::ProactiveScheduler> scheduler;
  if (spec.proactive) {
    scheduler.emplace(manager, millis(150));
    scheduler->add_domain(domain, system.domain_n(domain));
    scheduler->start();
    // Live traffic interleaved with rejuvenation rounds: every element of
    // the domain should rotate out and back in while the client never
    // notices.
    for (int round = 0; round < 6; ++round) {
      drive(1);
      system.sim().run_for(millis(150));
    }
    scheduler->stop();
  } else {
    drive(6);
  }
  system.settle();
  drive(2);  // the restored 3f+1 domain must serve fresh requests

  ScenarioResult result = rig.finish(name);
  result.element_discards = rig.element_discards(domain);
  return result;
}

ScenarioResult scenario_expel_replace_recover(std::uint64_t seed) {
  // The tentpole end-to-end: a dissenting element is expelled on its signed
  // proof, the recovery manager admits a fresh identity through an ordered
  // membership_update, certified state and epoch-refreshed keys install,
  // and the domain is back at 3f+1 serving requests.
  return run_recovery("expel_replace_recover", seed, {.dissent = true});
}

ScenarioResult scenario_recovery_corrupt_state_offer(std::uint64_t seed) {
  // Attack on recovery itself: a Byzantine peer serves MAC-valid but
  // corrupted state offers to the joining element. The f+1 byte-identical
  // bundle rule must mask it — two honest matching offers out-vote the
  // corrupt one and onboarding completes cleanly.
  return run_recovery("recovery_corrupt_state_offer", seed,
                      {.dissent = true, .corrupt_bundles = true});
}

ScenarioResult scenario_recovery_partition_onboarding(std::uint64_t seed) {
  // Attack on recovery itself: the joining identity is partitioned from its
  // domain peers mid-onboarding. The watchdog must abort the stalled
  // attempt (clean retirement, never a forked domain) and the retry must
  // complete once the partition heals — MTTR inside the multi-attempt
  // budget.
  return run_recovery("recovery_partition_onboarding", seed,
                      {.dissent = true, .partition_joiner = true});
}

ScenarioResult scenario_proactive_rejuvenation(std::uint64_t seed) {
  // No detected fault at all: the scheduler rotates every element of the
  // domain through periodic restart-from-certified-state with fresh keys,
  // staggered so the domain never drops below 3f live elements and client
  // traffic keeps completing throughout.
  return run_recovery("proactive_rejuvenation", seed, {.proactive = true});
}

ScenarioResult scenario_client_replay_storm(std::uint64_t seed) {
  // A compromised singleton client duplicates every ordered submission AND
  // replays the previous sealed GIOP frame each round. Both arrive with
  // already-consumed request ids, so every element must discard them
  // identically (§3.6 stale-rid rule) — a split decision would fork the
  // domain state. Misbehavior is masked, never healed.
  Rig rig(seed);
  const auto [domain, ref] = rig.add_domain<SumServant>();

  FaultPlan plan;
  for (const ClientFault::Kind kind : {ClientFault::Kind::kDuplicateRequests,
                                       ClientFault::Kind::kReplayStaleFrames}) {
    plan.client_faults.push_back({.client_index = 1, .kind = kind});
  }
  core::ItdosClient& honest = rig.add_client();
  core::ItdosClient& rogue = rig.system.add_client();
  rig.arm(std::move(plan), domain, {&honest, &rogue});
  rig.watch({domain});

  for (int round = 0; round < 6; ++round) {
    for (core::ItdosClient* who : {&rogue, &honest}) {
      rig.call(*who, ref, "add", int_args({round, 7}), round + 7);
    }
  }
  ScenarioResult result = rig.finish("client_replay_storm");
  result.element_discards = rig.element_discards(domain);
  return result;
}

// ---------------------------------------------------------------------------
// Sharded multi-domain scenarios (DESIGN.md §6g): the bank of src/shard/ —
// replicated tellers in a front domain issuing nested invocations into
// hash-sharded account domains — under inter-domain partitions and callee
// expulsions. These are the cross-domain counterparts of the single-domain
// scenarios above: the fault lands on the SECOND hop of a nested call.
// ---------------------------------------------------------------------------

/// Every per-element node of a domain — the static ones from the directory
/// (BFT, SMIOP, the element's own client endpoints) AND each party's lazily
/// allocated per-target ordering client nodes: one side of a partition that
/// cuts ALL of the domain's traffic toward the other side while leaving
/// intra-domain and GM traffic untouched. Missing the dynamic client nodes
/// would let sealed nested requests tunnel through the cut while the
/// replies starve unrecoverably (DirectReplies are never re-sent).
std::set<NodeId> domain_nodes(core::ItdosSystem& system, DomainId domain) {
  std::set<NodeId> nodes;
  const core::DomainInfo* info = system.directory().find_domain(domain);
  for (const core::ElementInfo& element : info->elements) {
    nodes.insert(element.bft_node);
    nodes.insert(element.smiop_node);
    nodes.insert(element.gm_client_node);
    nodes.insert(element.self_client_node);
  }
  for (int rank = 0; rank < system.domain_n(domain); ++rank) {
    for (const NodeId node : system.element(domain, rank).party().transport_nodes()) {
      nodes.insert(node);
    }
  }
  return nodes;
}

/// Two account shards behind one teller domain, one client, eight accounts.
shard::Bank build_bank(core::ItdosSystem& system) {
  shard::BankSpec spec;
  spec.accounts = 8;
  return shard::Bank::build(system, spec);
}

ScenarioResult scenario_cross_domain_partition_mid_call(std::uint64_t seed) {
  // An inter-domain partition forms while a teller's nested transfer is in
  // flight: the client's request is already ordered in the teller domain,
  // but the nested withdraw toward the `from` account's domain cannot
  // cross. The callers' SMIOP machinery must keep the pending nested call
  // alive (BFT client retransmission carries it over the heal), the
  // transfer must complete exactly once afterwards, and nobody may be
  // expelled for a stall the NETWORK caused.
  core::SystemOptions options;
  // The pending cross-domain vote must out-wait the partition window, not
  // be GC'd into an error halfway through it.
  options.timing.reply_vote_timeout_ns = seconds(5);
  Rig rig(seed, options);
  shard::Bank bank = build_bank(rig.system);

  const ObjectId from = bank.accounts_of_shard(0).front();
  const ObjectId to = bank.accounts_of_shard(1).front();
  const DomainId teller = bank.topology().front_domains().front();
  const DomainId callee = bank.topology().route(from);

  rig.watch({teller, bank.topology().shard_domains()[0],
             bank.topology().shard_domains()[1]});
  rig.oracle.watch_party(bank.client().party());

  std::int64_t from_balance = shard::BankSpec{}.initial_balance;
  const auto transfer = [&](std::int64_t timeout_ns) {
    from_balance -= 50;
    rig.call(bank.client(), bank.teller_ref(), "transfer",
             int_args({static_cast<std::int64_t>(from.value),
                       static_cast<std::int64_t>(to.value), 50}),
             from_balance, timeout_ns);
  };

  // Warm-up: routes the full nested path once (GM virtual connections on
  // both hops) and measures the round-trip the partition must interrupt.
  const SimTime before = rig.system.sim().now();
  transfer(seconds(10));
  const std::int64_t round_trip = rig.system.sim().now().ns - before.ns;

  // Cut teller <-> callee traffic from halfway into the next transfer's
  // round-trip: the client->teller hop is already ordered, the nested hop
  // is mid-flight. Heal well within the (raised) vote timeout.
  PartitionWindow window;
  window.side_a = domain_nodes(rig.system, teller);
  window.side_b = domain_nodes(rig.system, callee);
  window.form = SimTime{rig.system.sim().now().ns + round_trip / 2};
  window.heal = SimTime{window.form.ns + 2 * round_trip + millis(150)};
  FaultPlan plan;
  plan.partitions.push_back(window);
  plan.heal_time = window.heal;
  rig.arm(std::move(plan), callee);

  transfer(seconds(30));  // rides through the partition, completes post-heal
  transfer(seconds(10));  // post-heal: the cross-domain route is live again
  return rig.finish("cross_domain_partition_mid_call");
}

ScenarioResult scenario_callee_expulsion_mid_nested_call(std::uint64_t seed) {
  // A dissenting element in the CALLEE (account) domain mutates every reply
  // while the replicated tellers wait on their nested deposits. The teller
  // elements' voters mask the dissent (f+1 matching honest replies), each
  // element files its own change_request, and the GM's f+1-matching-reports
  // rule for replicated reporters (§3.6) expels the callee element — all
  // while the client's deposits keep completing with right answers.
  // Misbehavior is sticky; expulsion IS the heal.
  Rig rig(seed);
  shard::Bank bank = build_bank(rig.system);

  const ObjectId account = bank.accounts_of_shard(0).front();
  const DomainId teller = bank.topology().front_domains().front();
  const DomainId callee = bank.topology().route(account);
  const DomainId other = bank.topology().shard_domains()[1];

  FaultPlan plan;
  plan.element_faults.push_back(
      {.rank = 2, .kind = ElementFault::Kind::kDissentingReplies});
  rig.arm(std::move(plan), callee);
  rig.watch({teller, callee, other});
  rig.oracle.watch_party(bank.client().party());

  for (int round = 1; round <= 6; ++round) {
    rig.call(bank.client(), bank.teller_ref(), "deposit",
             int_args({static_cast<std::int64_t>(account.value), 7}),
             shard::BankSpec{}.initial_balance + 7 * round);
  }
  return rig.finish("callee_expulsion_mid_nested_call");
}

// ---------------------------------------------------------------------------
// Admission-control & feedback-response scenarios (DESIGN.md §6f): an
// adaptive adversary that re-aims at the deepest-queue element from live
// telemetry, with and without the response controller fighting back.
// ---------------------------------------------------------------------------

ScenarioResult scenario_adaptive_adversary_overload(std::uint64_t seed) {
  // Bounded admission under concurrent overload, hunted by an adaptive
  // adversary that delays whichever element currently has the deepest
  // replicated queue. Every element must shed the SAME requests (the voter
  // needs f+1 matching OVERLOAD exceptions for the client to see one), no
  // safety invariant may bend, and once the burst drains the domain must
  // serve plain requests again — admission control may say "no", but it may
  // not say it forever.
  core::SystemOptions options;
  options.timing.ack_interval = 2;         // tight GC: drained queues reopen fast
  options.timing.admission_max_depth = 12; // well above the post-drain residual
  Rig rig(seed, options);
  const auto [domain, ref] = rig.add_domain<SumServant>();

  FaultPlan plan;
  plan.heal_time = SimTime{millis(500)};
  plan.adaptive_faults.push_back({.window = {.until = plan.heal_time},
                                  .interval_ns = millis(20),
                                  .delay_probability = 0.4,
                                  .delay_min_ns = micros(200),
                                  .delay_max_ns = millis(2)});
  const SimTime heal = plan.heal_time;
  rig.arm(std::move(plan), domain);
  // The adversary only touches the network; every element stays correct
  // and stays watched.
  rig.watch({domain});

  constexpr int kConcurrentClients = 16;
  constexpr int kRounds = 4;
  std::vector<core::ItdosClient*> clients;
  for (int i = 0; i < kConcurrentClients; ++i) clients.push_back(&rig.add_client());

  // An explicit OVERLOAD reply is a deterministic, voted answer: for the
  // liveness rule it counts as completion (the request was not lost, it was
  // refused — and the refusal itself cleared f+1 matching ballots).
  auto overloaded = std::make_shared<std::size_t>(0);
  for (int round = 0; round < kRounds; ++round) {
    // The whole pool fires at once: depth at the replicated queues spikes
    // past max_depth and admission MUST kick in — deterministically.
    auto round_done = std::make_shared<int>(0);
    for (core::ItdosClient* client : clients) {
      ++rig.sent;
      client->orb().invoke(
          ref, "add", int_args({round, 7}),
          [&rig, overloaded, round_done](Result<cdr::Value> r) {
            ++*round_done;
            if (r.is_ok()) {
              ++rig.completed;
            } else if (r.status().code() == Errc::kResourceExhausted) {
              ++*overloaded;
              ++rig.completed;
            }
          });
    }
    const SimTime deadline = rig.system.sim().now() + seconds(20);
    while (*round_done < kConcurrentClients && rig.system.sim().now() < deadline) {
      if (!rig.system.sim().step()) break;
    }
  }

  // Past the adversary's window and with the burst drained, a plain serial
  // request must get a real answer — shed-forever IS starvation.
  rig.system.sim().run_until(SimTime{heal.ns + millis(50)});
  for (int i = 0; i < 2; ++i) rig.call(*clients[0], ref, "add", int_args({1, 2}), 3);

  ScenarioResult result = rig.finish("adaptive_adversary_overload");
  result.overloads = *overloaded;
  return result;
}

ScenarioResult scenario_adaptive_adversary_vs_controller(std::uint64_t seed) {
  // The full duel: a dissenting element plus an adaptive link adversary on
  // one side; proactive recovery, the GM strike policy and the §6f feedback
  // controller on the other. The controller starts conservative (2 strikes,
  // resting rejuvenation period), turns aggressive when the dissent shows up
  // in the suspicion counters, and stands back down once the domain is calm
  // — every move ordered through the GM and traced. Expulsion + replacement
  // IS the heal.
  Rig rig(seed);
  const auto [domain, ref] = rig.add_domain<PersistentSum>();

  FaultPlan plan;
  plan.element_faults.push_back({.rank = 2,
                                 .kind = ElementFault::Kind::kDissentingReplies,
                                 .at = SimTime{millis(20)}});
  plan.adaptive_faults.push_back({.window = {.until = SimTime{millis(800)}},
                                  .interval_ns = millis(25),
                                  .delay_probability = 0.3,
                                  .delay_min_ns = micros(100),
                                  .delay_max_ns = millis(1)});
  rig.arm(std::move(plan), domain);

  recovery::RecoveryManager manager(rig.system);
  manager.watch();
  recovery::ProactiveScheduler scheduler(manager, seconds(1));
  scheduler.add_domain(domain, rig.system.domain_n(domain));
  scheduler.start();

  control::ResponseControllerOptions copts;
  copts.interval_ns = millis(50);
  copts.law.min_period_ns = millis(300);  // floor the rotation rate: a short
                                          // run must not thrash recovery
  control::ResponseController controller(rig.system, manager, scheduler, copts);
  controller.start();

  rig.watch_recovery(manager);
  rig.watch({domain});
  core::ItdosClient& client = rig.add_client();

  // Traffic interleaved with idle windows: the duel needs wall-clock (sim
  // time) for retargets, control ticks and recovery cycles to play out.
  for (int round = 0; round < 8; ++round) {
    rig.call(client, ref, "add", int_args({1}));
    rig.system.sim().run_for(millis(100));
  }
  scheduler.stop();
  controller.stop();
  rig.system.settle();
  rig.call(client, ref, "add", int_args({1}));

  ScenarioResult result = rig.finish("adaptive_adversary_vs_controller");
  result.control_adjustments = controller.adjustments();
  return result;
}

struct ScenarioEntry {
  const char* name;
  ScenarioResult (*run)(std::uint64_t seed);
};

constexpr ScenarioEntry kScenarios[] = {
    {"drop_storm", scenario_drop_storm},
    {"delay_spike", scenario_delay_spike},
    {"duplicate_flood", scenario_duplicate_flood},
    {"corrupt_link", scenario_corrupt_link},
    {"partition_minority", scenario_partition_minority},
    {"partition_primary", scenario_partition_primary},
    {"silent_replica", scenario_silent_replica},
    {"corrupt_mac_replica", scenario_corrupt_mac_replica},
    {"equivocating_primary", scenario_equivocating_primary},
    {"batch_equivocating_primary", scenario_batch_equivocating_primary},
    {"viewchange_mid_pipeline", scenario_viewchange_mid_pipeline},
    {"stale_view_replay", scenario_stale_view_replay},
    {"expel_rekey_e2e", scenario_expel_rekey_e2e},
    {"bogus_change_request", scenario_bogus_change_request},
    {"share_starvation", scenario_share_starvation},
    {"gm_withhold_shares", scenario_gm_withhold_shares},
    {"gm_corrupt_shares", scenario_gm_corrupt_shares},
    {"expel_replace_recover", scenario_expel_replace_recover},
    {"recovery_corrupt_state_offer", scenario_recovery_corrupt_state_offer},
    {"recovery_partition_onboarding", scenario_recovery_partition_onboarding},
    {"client_replay_storm", scenario_client_replay_storm},
    {"cross_domain_partition_mid_call", scenario_cross_domain_partition_mid_call},
    {"callee_expulsion_mid_nested_call", scenario_callee_expulsion_mid_nested_call},
    {"proactive_rejuvenation", scenario_proactive_rejuvenation},
    {"adaptive_adversary_overload", scenario_adaptive_adversary_overload},
    {"adaptive_adversary_vs_controller", scenario_adaptive_adversary_vs_controller},
};

}  // namespace

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const ScenarioEntry& entry : kScenarios) names.emplace_back(entry.name);
  return names;
}

ScenarioResult run_scenario(const std::string& name, std::uint64_t seed) {
  for (const ScenarioEntry& entry : kScenarios) {
    if (name == entry.name) return entry.run(seed);
  }
  throw std::invalid_argument("unknown fault scenario: " + name);
}

ScenarioResult run_silent_replicas(int silent_count, std::uint64_t seed) {
  FaultPlan plan;
  for (int i = 0; i < silent_count; ++i) {
    // Mute from the highest rank down.
    plan.replica_faults.push_back({.rank = 3 - i, .silent = true});
  }
  return run_cluster("silent_x" + std::to_string(silent_count), seed,
                     std::move(plan), 4, seconds(5));
}

}  // namespace itdos::fault
