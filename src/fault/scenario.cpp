#include "fault/scenario.hpp"

#include <functional>
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

  const telemetry::Hub& hub = cluster.sim().telemetry();
  ScenarioResult result;
  result.name = name;
  result.seed = seed;
  result.violations = oracle.violations();
  result.requests_sent = static_cast<std::size_t>(requests);
  result.requests_completed = *completed;
  result.view_changes = hub.tracer().count(telemetry::TraceKind::kBftNewView);
  result.trace_jsonl = hub.tracer().export_jsonl();
  return result;
}

std::set<NodeId> cluster_nodes(const std::set<int>& ranks) {
  // bft::Cluster assigns replica node ids 1..3f+1 in rank order.
  std::set<NodeId> nodes;
  for (int rank : ranks) nodes.insert(NodeId(static_cast<std::uint64_t>(rank + 1)));
  return nodes;
}

FaultPlan all_links_plan(std::uint64_t seed, int n,
                         const std::function<void(LinkFault&)>& configure) {
  FaultPlan plan;
  plan.seed = seed;
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

ScenarioResult scenario_drop_storm(std::uint64_t seed) {
  FaultPlan plan = all_links_plan(seed, 4, [](LinkFault& fault) {
    fault.drop = 0.25;
  });
  return run_cluster("drop_storm", seed, std::move(plan), kClusterRequests,
                     seconds(10));
}

ScenarioResult scenario_delay_spike(std::uint64_t seed) {
  FaultPlan plan = all_links_plan(seed, 4, [](LinkFault& fault) {
    fault.delay_probability = 0.5;
    fault.delay_min_ns = millis(5);
    fault.delay_max_ns = millis(40);
  });
  return run_cluster("delay_spike", seed, std::move(plan), kClusterRequests,
                     seconds(10));
}

ScenarioResult scenario_duplicate_flood(std::uint64_t seed) {
  FaultPlan plan = all_links_plan(seed, 4, [](LinkFault& fault) {
    fault.duplicate = 0.5;
  });
  return run_cluster("duplicate_flood", seed, std::move(plan),
                     kClusterRequests, seconds(10));
}

ScenarioResult scenario_corrupt_link(std::uint64_t seed) {
  // One replica's outbound traffic is bit-flipped half the time; MACs reject
  // the garbage and retransmissions recover the rest.
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{seconds(2)};
  LinkFault fault;
  fault.from_node = NodeId(2);
  fault.corrupt = 0.5;
  fault.window.until = plan.heal_time;
  plan.link_faults.push_back(fault);
  return run_cluster("corrupt_link", seed, std::move(plan), kClusterRequests,
                     seconds(10));
}

ScenarioResult scenario_partition_minority(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{seconds(1)};
  PartitionWindow window;
  window.side_a = cluster_nodes({3});
  window.side_b = cluster_nodes({0, 1, 2});
  window.form = SimTime{0};  // before the first commit, or nothing is stressed
  window.heal = plan.heal_time;
  plan.partitions.push_back(window);
  return run_cluster("partition_minority", seed, std::move(plan),
                     kClusterRequests, seconds(10));
}

ScenarioResult scenario_partition_primary(std::uint64_t seed) {
  // Isolating the view-0 primary forces a view change; requests must still
  // complete once the group re-forms around the new primary.
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{millis(1500)};
  PartitionWindow window;
  window.side_a = cluster_nodes({0});
  window.side_b = cluster_nodes({1, 2, 3});
  window.form = SimTime{0};  // before the first commit, or nothing is stressed
  window.heal = plan.heal_time;
  plan.partitions.push_back(window);
  return run_cluster("partition_primary", seed, std::move(plan),
                     kClusterRequests, seconds(12));
}

ScenarioResult scenario_silent_replica(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{0};  // nothing heals; f = 1 absorbs the fault
  ReplicaFault fault;
  fault.rank = 3;
  fault.silent = true;
  plan.replica_faults.push_back(fault);
  return run_cluster("silent_replica", seed, std::move(plan),
                     kClusterRequests, seconds(10));
}

ScenarioResult scenario_corrupt_mac_replica(std::uint64_t seed) {
  // A replica whose authenticators never verify is indistinguishable from a
  // silent one to its peers — the quorum math must absorb it.
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{0};
  ReplicaFault fault;
  fault.rank = 3;
  fault.corrupt_macs = true;
  plan.replica_faults.push_back(fault);
  return run_cluster("corrupt_mac_replica", seed, std::move(plan),
                     kClusterRequests, seconds(10));
}

ScenarioResult scenario_equivocating_primary(std::uint64_t seed) {
  // The view-0 primary sends conflicting pre-prepares per backup; no quorum
  // can form, the view-change timeout fires, and the next primary takes
  // over (Castro-Liskov's documented recovery; DESIGN.md §ordering).
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{seconds(1)};
  ReplicaFault fault;
  fault.rank = 0;
  fault.equivocate = true;
  fault.window.until = plan.heal_time;
  plan.replica_faults.push_back(fault);
  return run_cluster("equivocating_primary", seed, std::move(plan),
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
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{seconds(1)};
  ReplicaFault fault;
  fault.rank = 0;
  fault.equivocate = true;
  fault.window.until = plan.heal_time;
  plan.replica_faults.push_back(fault);
  return run_cluster("batch_equivocating_primary", seed, std::move(plan), 16,
                     seconds(12), batched_tuning);
}

ScenarioResult scenario_viewchange_mid_pipeline(std::uint64_t seed) {
  // The view-0 primary is partitioned away AFTER the pipelined batches have
  // entered flight: several uncommitted agreement instances straddle the
  // view change. Every parked and in-flight entry must resurface exactly
  // once under the new primary (re-proposal from prepared proofs or client
  // retransmission after the dedup-horizon reset).
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{millis(1500)};
  PartitionWindow window;
  window.side_a = cluster_nodes({0});
  window.side_b = cluster_nodes({1, 2, 3});
  window.form = SimTime{micros(250)};  // first batches are mid-agreement
  window.heal = plan.heal_time;
  plan.partitions.push_back(window);
  return run_cluster("viewchange_mid_pipeline", seed, std::move(plan), 20,
                     seconds(12), batched_tuning);
}

ScenarioResult scenario_stale_view_replay(std::uint64_t seed) {
  // Phase 1: a brief primary partition forces a real view change, arming
  // every replica with a signed VIEW-CHANGE envelope. Phase 2: replica 2
  // replays its stale envelope every 100ms; correct peers must discard the
  // replays without spurious view changes or lost liveness.
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{seconds(2)};
  PartitionWindow window;
  window.side_a = cluster_nodes({0});
  window.side_b = cluster_nodes({1, 2, 3});
  window.form = SimTime{0};
  window.heal = SimTime{millis(500)};
  plan.partitions.push_back(window);
  ReplicaFault fault;
  fault.rank = 2;
  fault.window.from = SimTime{millis(600)};
  fault.window.until = plan.heal_time;
  fault.stale_replay_period_ns = millis(100);
  plan.replica_faults.push_back(fault);
  return run_cluster("stale_view_replay", seed, std::move(plan),
                     kClusterRequests, seconds(12));
}

// ---------------------------------------------------------------------------
// ITDOS scenarios: the full stack — SMIOP connections, unmarshalled voting,
// Group Manager detection / expulsion / rekey.
// ---------------------------------------------------------------------------

class SumServant : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:fault/Sum:1.0"; }
  void dispatch(const std::string&, const cdr::Value& args, orb::ServerContext&,
                orb::ReplySinkPtr sink) override {
    std::int64_t sum = 0;
    for (const auto& v : args.elements()) sum += v.as_int64();
    sink->reply(cdr::Value::int64(sum));
  }
};

/// invoke_sync with a heap-allocated outcome slot: under faults the
/// completion may fire after a timeout return, which must not write into a
/// dead stack frame.
Result<cdr::Value> safe_invoke(core::ItdosSystem& system,
                               core::ItdosClient& client,
                               const orb::ObjectRef& ref,
                               const std::string& operation, cdr::Value args,
                               std::int64_t timeout_ns) {
  auto outcome = std::make_shared<std::optional<Result<cdr::Value>>>();
  client.orb().invoke(ref, operation, std::move(args),
                      [outcome](Result<cdr::Value> r) { *outcome = std::move(r); });
  const SimTime deadline = system.sim().now() + timeout_ns;
  while (!outcome->has_value() && system.sim().now() < deadline) {
    if (!system.sim().step()) break;
  }
  if (!outcome->has_value()) {
    return error(Errc::kUnavailable, "fault-scenario invocation timed out");
  }
  return std::move(**outcome);
}

/// Builds the system first, then asks `build_plan` for the fault plan —
/// plans that target specific endpoints (partitions around an element's
/// SMIOP node, say) need the directory's node-id assignments, which only
/// exist once the deployment is up.
ScenarioResult run_itdos_with(
    const std::string& name, std::uint64_t seed,
    const std::function<FaultPlan(const core::ItdosSystem&, DomainId)>& build_plan,
    int requests) {
  core::SystemOptions options;
  options.seed = seed;
  core::ItdosSystem system(options);
  const DomainId domain = system.add_domain(
      1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
        // Key 1 is free in a freshly built domain; activation cannot fail.
        (void)adapter.activate_with_key(ObjectId(1),
                                        std::make_shared<SumServant>());
      });
  FaultPlan plan = build_plan(system, domain);

  std::set<int> faulty_ranks;
  for (const ElementFault& fault : plan.element_faults) {
    if (fault.kind == ElementFault::Kind::kDissentingReplies) {
      faulty_ranks.insert(fault.rank);
    }
  }

  FaultInjector injector(system.network(), plan);
  injector.arm_links();
  for (const ElementFault& fault : injector.plan().element_faults) {
    injector.arm_element(fault, system, domain);
  }
  for (const GmFault& fault : injector.plan().gm_faults) {
    injector.arm_gm(fault, system);
  }

  Oracle oracle(system.sim().telemetry());
  for (int i = 0; i < system.gm_n(); ++i) {
    oracle.watch_replica(0, system.gm_element(i).replica());
    oracle.watch_gm(system.gm_element(i));
  }
  for (int rank = 0; rank < system.domain_n(domain); ++rank) {
    if (!faulty_ranks.contains(rank)) {
      oracle.watch_replica(1, system.element(domain, rank).replica());
    }
  }

  core::ItdosClient& client = system.add_client();
  oracle.watch_party(client.party());
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:fault/Sum:1.0");

  std::size_t completed = 0;
  for (int i = 0; i < requests; ++i) {
    const Result<cdr::Value> result = safe_invoke(
        system, client, ref, "add",
        cdr::Value::sequence({cdr::Value::int64(i), cdr::Value::int64(7)}),
        seconds(30));
    if (result.is_ok() && result.value().as_int64() == i + 7) ++completed;
  }
  system.settle();

  oracle.check_liveness(completed, static_cast<std::size_t>(requests));
  oracle.check_expulsions(system.gm_element(0).state());

  const telemetry::Hub& hub = system.sim().telemetry();
  ScenarioResult result;
  result.name = name;
  result.seed = seed;
  result.violations = oracle.violations();
  result.requests_sent = static_cast<std::size_t>(requests);
  result.requests_completed = completed;
  result.expulsions = system.gm_element(0).state().expulsions();
  result.detection = result.expulsions > 0;
  result.rekeys = hub.tracer().count(telemetry::TraceKind::kGmRekey);
  result.view_changes = hub.tracer().count(telemetry::TraceKind::kBftNewView);
  result.trace_jsonl = hub.tracer().export_jsonl();
  return result;
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
  // answers.
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{0};  // misbehavior is sticky; expulsion IS the heal
  ElementFault fault;
  fault.rank = 2;
  fault.kind = ElementFault::Kind::kDissentingReplies;
  plan.element_faults.push_back(fault);
  return run_itdos("expel_rekey_e2e", seed, std::move(plan), 4);
}

ScenarioResult scenario_bogus_change_request(std::uint64_t seed) {
  // One element of a replicated domain files a change_request framing a
  // correct peer. Replicated reporters are only believed at f+1 matching
  // reports (§3.6), so a lone rogue must never trigger an expulsion.
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{millis(100)};
  ElementFault fault;
  fault.rank = 1;
  fault.kind = ElementFault::Kind::kBogusChangeRequests;
  fault.victim_rank = 0;
  fault.at = SimTime{millis(50)};  // after the first connection exists
  plan.element_faults.push_back(fault);
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
  // ordered entries.
  return run_itdos_with(
      "share_starvation", seed,
      [seed](const core::ItdosSystem& system, DomainId domain) {
        const core::DomainInfo* info = system.directory().find_domain(domain);
        PartitionWindow window;
        window.side_a.insert(info->elements[1].smiop_node);
        for (const core::ElementInfo& gm : system.directory().gm().elements) {
          window.side_b.insert(gm.smiop_node);
        }
        window.form = SimTime{0};
        window.heal = SimTime{seconds(30)};  // far past the run's traffic
        FaultPlan plan;
        plan.seed = seed;
        plan.partitions.push_back(window);
        plan.heal_time = SimTime{0};  // expulsion IS the heal (§3.6)
        return plan;
      },
      150);
}

ScenarioResult scenario_gm_withhold_shares(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{0};
  GmFault fault;
  fault.index = 0;
  fault.withhold_shares = true;
  plan.gm_faults.push_back(fault);
  return run_itdos("gm_withhold_shares", seed, std::move(plan), 4);
}

ScenarioResult scenario_gm_corrupt_shares(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{0};
  GmFault fault;
  fault.index = 0;
  fault.corrupt_shares = true;
  plan.gm_faults.push_back(fault);
  return run_itdos("gm_corrupt_shares", seed, std::move(plan), 4);
}

// ---------------------------------------------------------------------------
// Recovery scenarios: the expel -> replace -> rekey loop of src/recovery/,
// including attacks on the recovery machinery itself (DESIGN.md §6d).
// ---------------------------------------------------------------------------

/// A stateful accumulator WITH persistence: recovery scenarios must move real
/// servant state through the f+1 byte-identical bundle certification.
class PersistentSum : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:fault/PSum:1.0"; }

  void dispatch(const std::string& operation, const cdr::Value& args,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "add") {
      for (const auto& v : args.elements()) total_ += v.as_int64();
      sink->reply(cdr::Value::int64(total_));
    } else {
      sink->reply(cdr::Value::int64(total_));
    }
  }

  Result<Bytes> save_state() const override { return wire::encode(total_); }

  Status load_state(ByteView state) override {
    ITDOS_ASSIGN_OR_RETURN(total_, wire::decode<std::int64_t>(state));
    return Status::ok();
  }

 private:
  std::int64_t total_ = 0;
};

// `element.<node>.entries_discarded` of each current element of `domain`,
// by rank.
std::vector<std::uint64_t> element_discards(core::ItdosSystem& system, DomainId domain) {
  const auto& counters = system.sim().telemetry().metrics().counters();
  std::vector<std::uint64_t> discards;
  for (int rank = 0; rank < system.domain_n(domain); ++rank) {
    const NodeId node = system.element(domain, rank).smiop_node();
    discards.push_back(
        counters.at("element." + node.to_string() + ".entries_discarded").value());
  }
  return discards;
}

struct RecoverySpec {
  bool dissent = false;           // rank 2 dissents -> proof-based expulsion
  bool corrupt_bundles = false;   // rank 0 serves corrupt state offers
  bool partition_joiner = false;  // isolate the joining identity mid-onboarding
  bool proactive = false;         // scheduler-driven rejuvenation, no faults
  int requests = 6;
};

ScenarioResult run_recovery(const std::string& name, std::uint64_t seed,
                            const RecoverySpec& spec) {
  core::SystemOptions options;
  options.seed = seed;
  core::ItdosSystem system(options);
  const DomainId domain = system.add_domain(
      1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
        // Key 1 is free in a freshly built domain; activation cannot fail.
        (void)adapter.activate_with_key(ObjectId(1),
                                        std::make_shared<PersistentSum>());
      });

  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{0};  // expulsion + replacement IS the heal
  if (spec.dissent) {
    ElementFault fault;
    fault.rank = 2;
    fault.kind = ElementFault::Kind::kDissentingReplies;
    plan.element_faults.push_back(fault);
  }
  if (spec.corrupt_bundles) {
    ElementFault fault;
    fault.rank = 0;
    fault.kind = ElementFault::Kind::kCorruptStateBundles;
    plan.element_faults.push_back(fault);
  }

  FaultInjector injector(system.network(), plan);
  injector.arm_links();
  for (const ElementFault& fault : injector.plan().element_faults) {
    injector.arm_element(fault, system, domain);
  }

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

  Oracle oracle(system.sim().telemetry());
  oracle.watch_recovery(manager);
  for (int i = 0; i < system.gm_n(); ++i) {
    oracle.watch_replica(0, system.gm_element(i).replica());
    oracle.watch_gm(system.gm_element(i));
  }
  for (int rank = 0; rank < system.domain_n(domain); ++rank) {
    if (!(spec.dissent && rank == 2)) {
      oracle.watch_replica(1, system.element(domain, rank).replica());
    }
  }

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

  core::ItdosClient& client = system.add_client();
  oracle.watch_party(client.party());
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:fault/PSum:1.0");

  std::size_t sent = 0;
  std::size_t completed = 0;
  const auto drive = [&](int count) {
    for (int i = 0; i < count; ++i) {
      ++sent;
      const Result<cdr::Value> result = safe_invoke(
          system, client, ref, "add",
          cdr::Value::sequence({cdr::Value::int64(1)}), seconds(30));
      if (result.is_ok()) ++completed;
    }
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
    drive(spec.requests);
  }
  system.settle();
  drive(2);  // the restored 3f+1 domain must serve fresh requests
  system.settle();

  oracle.check_liveness(completed, sent);
  oracle.check_expulsions(system.gm_element(0).state());
  oracle.check_membership(system.gm_element(0).state(), system.directory());

  const telemetry::Hub& hub = system.sim().telemetry();
  ScenarioResult result;
  result.name = name;
  result.seed = seed;
  result.violations = oracle.violations();
  result.requests_sent = sent;
  result.requests_completed = completed;
  result.expulsions = system.gm_element(0).state().expulsions();
  result.detection = result.expulsions > 0;
  result.rekeys = hub.tracer().count(telemetry::TraceKind::kGmRekey);
  result.view_changes = hub.tracer().count(telemetry::TraceKind::kBftNewView);
  result.membership_updates =
      hub.tracer().count(telemetry::TraceKind::kGmMembershipUpdate);
  result.recoveries_started = manager.stats().started;
  result.recoveries_completed = manager.stats().completed;
  result.recoveries_aborted = manager.stats().aborted;
  result.last_mttr_ns = manager.stats().last_mttr_ns;
  result.element_discards = element_discards(system, domain);
  result.trace_jsonl = hub.tracer().export_jsonl();
  return result;
}

ScenarioResult scenario_expel_replace_recover(std::uint64_t seed) {
  // The tentpole end-to-end: a dissenting element is expelled on its signed
  // proof, the recovery manager admits a fresh identity through an ordered
  // membership_update, certified state and epoch-refreshed keys install,
  // and the domain is back at 3f+1 serving requests.
  RecoverySpec spec;
  spec.dissent = true;
  return run_recovery("expel_replace_recover", seed, spec);
}

ScenarioResult scenario_recovery_corrupt_state_offer(std::uint64_t seed) {
  // Attack on recovery itself: a Byzantine peer serves MAC-valid but
  // corrupted state offers to the joining element. The f+1 byte-identical
  // bundle rule must mask it — two honest matching offers out-vote the
  // corrupt one and onboarding completes cleanly.
  RecoverySpec spec;
  spec.dissent = true;
  spec.corrupt_bundles = true;
  return run_recovery("recovery_corrupt_state_offer", seed, spec);
}

ScenarioResult scenario_recovery_partition_onboarding(std::uint64_t seed) {
  // Attack on recovery itself: the joining identity is partitioned from its
  // domain peers mid-onboarding. The watchdog must abort the stalled
  // attempt (clean retirement, never a forked domain) and the retry must
  // complete once the partition heals — MTTR inside the multi-attempt
  // budget.
  RecoverySpec spec;
  spec.dissent = true;
  spec.partition_joiner = true;
  return run_recovery("recovery_partition_onboarding", seed, spec);
}

ScenarioResult scenario_proactive_rejuvenation(std::uint64_t seed) {
  // No detected fault at all: the scheduler rotates every element of the
  // domain through periodic restart-from-certified-state with fresh keys,
  // staggered so the domain never drops below 3f live elements and client
  // traffic keeps completing throughout.
  RecoverySpec spec;
  spec.proactive = true;
  return run_recovery("proactive_rejuvenation", seed, spec);
}

ScenarioResult scenario_client_replay_storm(std::uint64_t seed) {
  // A compromised singleton client duplicates every ordered submission AND
  // replays the previous sealed GIOP frame each round. Both arrive with
  // already-consumed request ids, so every element must discard them
  // identically (§3.6 stale-rid rule) — a split decision would fork the
  // domain state.
  core::SystemOptions options;
  options.seed = seed;
  core::ItdosSystem system(options);
  const DomainId domain = system.add_domain(
      1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
        // Key 1 is free in a freshly built domain; activation cannot fail.
        (void)adapter.activate_with_key(ObjectId(1),
                                        std::make_shared<SumServant>());
      });

  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{0};  // misbehavior is masked, never healed
  for (const ClientFault::Kind kind : {ClientFault::Kind::kDuplicateRequests,
                                       ClientFault::Kind::kReplayStaleFrames}) {
    ClientFault fault;
    fault.client_index = 1;
    fault.kind = kind;
    plan.client_faults.push_back(fault);
  }

  core::ItdosClient& honest = system.add_client();
  core::ItdosClient& rogue = system.add_client();

  FaultInjector injector(system.network(), plan);
  injector.arm_links();
  for (const ClientFault& fault : injector.plan().client_faults) {
    injector.arm_client(fault, fault.client_index == 0 ? honest : rogue);
  }

  Oracle oracle(system.sim().telemetry());
  for (int i = 0; i < system.gm_n(); ++i) {
    oracle.watch_replica(0, system.gm_element(i).replica());
    oracle.watch_gm(system.gm_element(i));
  }
  for (int rank = 0; rank < system.domain_n(domain); ++rank) {
    oracle.watch_replica(1, system.element(domain, rank).replica());
  }
  oracle.watch_party(honest.party());

  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:fault/Sum:1.0");
  std::size_t sent = 0;
  std::size_t completed = 0;
  for (int round = 0; round < 6; ++round) {
    for (core::ItdosClient* who : {&rogue, &honest}) {
      ++sent;
      const Result<cdr::Value> result = safe_invoke(
          system, *who, ref, "add",
          cdr::Value::sequence({cdr::Value::int64(round), cdr::Value::int64(7)}),
          seconds(30));
      if (result.is_ok() && result.value().as_int64() == round + 7) ++completed;
    }
  }
  system.settle();

  oracle.check_liveness(completed, sent);
  oracle.check_expulsions(system.gm_element(0).state());

  const telemetry::Hub& hub = system.sim().telemetry();
  ScenarioResult result;
  result.name = "client_replay_storm";
  result.seed = seed;
  result.violations = oracle.violations();
  result.requests_sent = sent;
  result.requests_completed = completed;
  result.expulsions = system.gm_element(0).state().expulsions();
  result.detection = result.expulsions > 0;
  result.rekeys = hub.tracer().count(telemetry::TraceKind::kGmRekey);
  result.view_changes = hub.tracer().count(telemetry::TraceKind::kBftNewView);
  result.element_discards = element_discards(system, domain);
  result.trace_jsonl = hub.tracer().export_jsonl();
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

cdr::Value bank_args(std::initializer_list<std::int64_t> values) {
  std::vector<cdr::Value> elems;
  for (const std::int64_t v : values) elems.push_back(cdr::Value::int64(v));
  return cdr::Value::sequence(std::move(elems));
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
  options.seed = seed;
  // The pending cross-domain vote must out-wait the partition window, not
  // be GC'd into an error halfway through it.
  options.timing.reply_vote_timeout_ns = seconds(5);
  core::ItdosSystem system(options);

  shard::BankSpec spec;
  spec.shards = 2;
  spec.tellers = 1;
  spec.clients = 1;
  spec.accounts = 8;
  shard::Bank bank = shard::Bank::build(system, spec);

  const ObjectId from = bank.accounts_of_shard(0).front();
  const ObjectId to = bank.accounts_of_shard(1).front();
  const DomainId teller = bank.topology().front_domains().front();
  const DomainId callee = bank.topology().route(from);

  Oracle oracle(system.sim().telemetry());
  for (int i = 0; i < system.gm_n(); ++i) {
    oracle.watch_replica(0, system.gm_element(i).replica());
    oracle.watch_gm(system.gm_element(i));
  }
  int group = 1;
  for (const DomainId domain :
       {teller, bank.topology().shard_domains()[0],
        bank.topology().shard_domains()[1]}) {
    for (int rank = 0; rank < system.domain_n(domain); ++rank) {
      oracle.watch_replica(group, system.element(domain, rank).replica());
    }
    ++group;
  }
  oracle.watch_party(bank.client().party());

  std::size_t sent = 0;
  std::size_t completed = 0;
  std::int64_t from_balance = spec.initial_balance;
  const auto transfer = [&](std::int64_t timeout_ns) {
    ++sent;
    const Result<cdr::Value> result = safe_invoke(
        system, bank.client(), bank.teller_ref(), "transfer",
        bank_args({static_cast<std::int64_t>(from.value),
                   static_cast<std::int64_t>(to.value), 50}),
        timeout_ns);
    from_balance -= 50;
    if (result.is_ok() && result.value().as_int64() == from_balance) {
      ++completed;
    }
  };

  // Warm-up: routes the full nested path once (GM virtual connections on
  // both hops) and measures the round-trip the partition must interrupt.
  const SimTime before = system.sim().now();
  transfer(seconds(10));
  const std::int64_t round_trip = system.sim().now().ns - before.ns;

  // Cut teller <-> callee traffic from halfway into the next transfer's
  // round-trip: the client->teller hop is already ordered, the nested hop
  // is mid-flight. Heal well within the (raised) vote timeout.
  PartitionWindow window;
  window.side_a = domain_nodes(system, teller);
  window.side_b = domain_nodes(system, callee);
  window.form = SimTime{system.sim().now().ns + round_trip / 2};
  window.heal = SimTime{window.form.ns + 2 * round_trip + millis(150)};
  FaultPlan plan;
  plan.seed = seed;
  plan.partitions.push_back(window);
  plan.heal_time = window.heal;
  FaultInjector injector(system.network(), plan);
  injector.arm_links();

  transfer(seconds(30));  // rides through the partition, completes post-heal
  transfer(seconds(10));  // post-heal: the cross-domain route is live again

  system.settle();
  oracle.check_liveness(completed, sent);
  oracle.check_expulsions(system.gm_element(0).state());

  const telemetry::Hub& hub = system.sim().telemetry();
  ScenarioResult result;
  result.name = "cross_domain_partition_mid_call";
  result.seed = seed;
  result.violations = oracle.violations();
  result.requests_sent = sent;
  result.requests_completed = completed;
  result.expulsions = system.gm_element(0).state().expulsions();
  result.detection = result.expulsions > 0;
  result.rekeys = hub.tracer().count(telemetry::TraceKind::kGmRekey);
  result.view_changes = hub.tracer().count(telemetry::TraceKind::kBftNewView);
  result.trace_jsonl = hub.tracer().export_jsonl();
  return result;
}

ScenarioResult scenario_callee_expulsion_mid_nested_call(std::uint64_t seed) {
  // A dissenting element in the CALLEE (account) domain mutates every reply
  // while the replicated tellers wait on their nested deposits. The teller
  // elements' voters mask the dissent (f+1 matching honest replies), each
  // element files its own change_request, and the GM's f+1-matching-reports
  // rule for replicated reporters (§3.6) expels the callee element — all
  // while the client's deposits keep completing with right answers.
  core::SystemOptions options;
  options.seed = seed;
  core::ItdosSystem system(options);

  shard::BankSpec spec;
  spec.shards = 2;
  spec.tellers = 1;
  spec.clients = 1;
  spec.accounts = 8;
  shard::Bank bank = shard::Bank::build(system, spec);

  const ObjectId account = bank.accounts_of_shard(0).front();
  const DomainId teller = bank.topology().front_domains().front();
  const DomainId callee = bank.topology().route(account);
  const DomainId other = bank.topology().shard_domains()[1];

  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{0};  // misbehavior is sticky; expulsion IS the heal
  ElementFault fault;
  fault.rank = 2;
  fault.kind = ElementFault::Kind::kDissentingReplies;
  plan.element_faults.push_back(fault);

  FaultInjector injector(system.network(), plan);
  injector.arm_links();
  for (const ElementFault& element_fault : injector.plan().element_faults) {
    injector.arm_element(element_fault, system, callee);
  }

  Oracle oracle(system.sim().telemetry());
  for (int i = 0; i < system.gm_n(); ++i) {
    oracle.watch_replica(0, system.gm_element(i).replica());
    oracle.watch_gm(system.gm_element(i));
  }
  for (int rank = 0; rank < system.domain_n(teller); ++rank) {
    oracle.watch_replica(1, system.element(teller, rank).replica());
  }
  for (int rank = 0; rank < system.domain_n(callee); ++rank) {
    if (rank == fault.rank) continue;  // the dissenter is not "correct"
    oracle.watch_replica(2, system.element(callee, rank).replica());
  }
  for (int rank = 0; rank < system.domain_n(other); ++rank) {
    oracle.watch_replica(3, system.element(other, rank).replica());
  }
  oracle.watch_party(bank.client().party());

  std::size_t sent = 0;
  std::size_t completed = 0;
  for (int round = 1; round <= 6; ++round) {
    ++sent;
    const Result<cdr::Value> result = safe_invoke(
        system, bank.client(), bank.teller_ref(), "deposit",
        bank_args({static_cast<std::int64_t>(account.value), 7}), seconds(30));
    if (result.is_ok() &&
        result.value().as_int64() == spec.initial_balance + 7 * round) {
      ++completed;
    }
  }
  system.settle();

  oracle.check_liveness(completed, sent);
  oracle.check_expulsions(system.gm_element(0).state());

  const telemetry::Hub& hub = system.sim().telemetry();
  ScenarioResult result;
  result.name = "callee_expulsion_mid_nested_call";
  result.seed = seed;
  result.violations = oracle.violations();
  result.requests_sent = sent;
  result.requests_completed = completed;
  result.expulsions = system.gm_element(0).state().expulsions();
  result.detection = result.expulsions > 0;
  result.rekeys = hub.tracer().count(telemetry::TraceKind::kGmRekey);
  result.view_changes = hub.tracer().count(telemetry::TraceKind::kBftNewView);
  result.trace_jsonl = hub.tracer().export_jsonl();
  return result;
}

// ---------------------------------------------------------------------------
// Admission-control & feedback-response scenarios (DESIGN.md §6f): an
// adaptive adversary that re-aims at the deepest-queue element from live
// telemetry, with and without the response controller fighting back.
// ---------------------------------------------------------------------------

std::uint64_t sum_shed_gauges(const telemetry::MetricsRegistry& registry) {
  std::uint64_t total = 0;
  for (const auto& [gauge_name, gauge] : registry.gauges()) {
    if (gauge_name.starts_with("admission.") && gauge_name.ends_with(".shed")) {
      total += static_cast<std::uint64_t>(gauge.value());
    }
  }
  return total;
}

ScenarioResult scenario_adaptive_adversary_overload(std::uint64_t seed) {
  // Bounded admission under concurrent overload, hunted by an adaptive
  // adversary that delays whichever element currently has the deepest
  // replicated queue. Every element must shed the SAME requests (the voter
  // needs f+1 matching OVERLOAD exceptions for the client to see one), no
  // safety invariant may bend, and once the burst drains the domain must
  // serve plain requests again — admission control may say "no", but it may
  // not say it forever.
  core::SystemOptions options;
  options.seed = seed;
  options.timing.ack_interval = 2;         // tight GC: drained queues reopen fast
  options.timing.admission_max_depth = 12; // well above the post-drain residual
  core::ItdosSystem system(options);
  const DomainId domain = system.add_domain(
      1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
        // Key 1 is free in a freshly built domain; activation cannot fail.
        (void)adapter.activate_with_key(ObjectId(1),
                                        std::make_shared<SumServant>());
      });

  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{millis(500)};
  AdaptiveFault adaptive;
  adaptive.window.until = plan.heal_time;
  adaptive.interval_ns = millis(20);
  adaptive.delay_probability = 0.4;
  adaptive.delay_min_ns = micros(200);
  adaptive.delay_max_ns = millis(2);
  plan.adaptive_faults.push_back(adaptive);

  FaultInjector injector(system.network(), plan);
  injector.arm_links();
  for (const AdaptiveFault& fault : injector.plan().adaptive_faults) {
    injector.arm_adaptive(fault, system, domain);
  }

  Oracle oracle(system.sim().telemetry());
  for (int i = 0; i < system.gm_n(); ++i) {
    oracle.watch_replica(0, system.gm_element(i).replica());
    oracle.watch_gm(system.gm_element(i));
  }
  for (int rank = 0; rank < system.domain_n(domain); ++rank) {
    // The adversary only touches the network; every element stays correct
    // and stays watched.
    oracle.watch_replica(1, system.element(domain, rank).replica());
  }

  constexpr int kConcurrentClients = 16;
  constexpr int kRounds = 4;
  std::vector<core::ItdosClient*> clients;
  for (int i = 0; i < kConcurrentClients; ++i) {
    clients.push_back(&system.add_client());
    oracle.watch_party(clients.back()->party());
  }
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:fault/Sum:1.0");

  std::size_t sent = 0;
  auto ok = std::make_shared<std::size_t>(0);
  auto overloaded = std::make_shared<std::size_t>(0);
  for (int round = 0; round < kRounds; ++round) {
    // The whole pool fires at once: depth at the replicated queues spikes
    // past max_depth and admission MUST kick in — deterministically.
    auto round_done = std::make_shared<int>(0);
    for (core::ItdosClient* client : clients) {
      ++sent;
      client->orb().invoke(
          ref, "add",
          cdr::Value::sequence({cdr::Value::int64(round), cdr::Value::int64(7)}),
          [ok, overloaded, round_done](Result<cdr::Value> r) {
            ++*round_done;
            if (r.is_ok()) {
              ++*ok;
            } else if (r.status().code() == Errc::kResourceExhausted) {
              ++*overloaded;
            }
          });
    }
    const SimTime deadline = system.sim().now() + seconds(20);
    while (*round_done < kConcurrentClients && system.sim().now() < deadline) {
      if (!system.sim().step()) break;
    }
  }

  // Past the adversary's window and with the burst drained, a plain serial
  // request must get a real answer — shed-forever IS starvation.
  system.sim().run_until(SimTime{plan.heal_time.ns + millis(50)});
  for (int i = 0; i < 2; ++i) {
    ++sent;
    const Result<cdr::Value> result = safe_invoke(
        system, *clients[0], ref, "add",
        cdr::Value::sequence({cdr::Value::int64(1), cdr::Value::int64(2)}),
        seconds(30));
    if (result.is_ok() && result.value().as_int64() == 3) ++*ok;
  }
  system.settle();

  // An explicit OVERLOAD reply is a deterministic, voted answer: for the
  // liveness rule it counts as completion (the request was not lost, it was
  // refused — and the refusal itself cleared f+1 matching ballots).
  oracle.check_liveness(*ok + *overloaded, sent);
  oracle.check_expulsions(system.gm_element(0).state());

  const telemetry::Hub& hub = system.sim().telemetry();
  ScenarioResult result;
  result.name = "adaptive_adversary_overload";
  result.seed = seed;
  result.violations = oracle.violations();
  result.requests_sent = sent;
  result.requests_completed = *ok + *overloaded;
  result.expulsions = system.gm_element(0).state().expulsions();
  result.detection = result.expulsions > 0;
  result.rekeys = hub.tracer().count(telemetry::TraceKind::kGmRekey);
  result.view_changes = hub.tracer().count(telemetry::TraceKind::kBftNewView);
  result.sheds = sum_shed_gauges(hub.metrics());
  result.overloads = *overloaded;
  result.adaptive_retargets = injector.retargets();
  result.trace_jsonl = hub.tracer().export_jsonl();
  return result;
}

ScenarioResult scenario_adaptive_adversary_vs_controller(std::uint64_t seed) {
  // The full duel: a dissenting element plus an adaptive link adversary on
  // one side; proactive recovery, the GM strike policy and the §6f feedback
  // controller on the other. The controller starts conservative (2 strikes,
  // resting rejuvenation period), turns aggressive when the dissent shows up
  // in the suspicion counters, and stands back down once the domain is calm
  // — every move ordered through the GM and traced.
  core::SystemOptions options;
  options.seed = seed;
  core::ItdosSystem system(options);
  const DomainId domain = system.add_domain(
      1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
        // Key 1 is free in a freshly built domain; activation cannot fail.
        (void)adapter.activate_with_key(ObjectId(1),
                                        std::make_shared<PersistentSum>());
      });

  FaultPlan plan;
  plan.seed = seed;
  plan.heal_time = SimTime{0};  // expulsion + replacement IS the heal
  ElementFault dissent;
  dissent.rank = 2;
  dissent.kind = ElementFault::Kind::kDissentingReplies;
  dissent.at = SimTime{millis(20)};
  plan.element_faults.push_back(dissent);
  AdaptiveFault adaptive;
  adaptive.window.until = SimTime{millis(800)};
  adaptive.interval_ns = millis(25);
  adaptive.delay_probability = 0.3;
  adaptive.delay_min_ns = micros(100);
  adaptive.delay_max_ns = millis(1);
  plan.adaptive_faults.push_back(adaptive);

  FaultInjector injector(system.network(), plan);
  injector.arm_links();
  for (const ElementFault& fault : injector.plan().element_faults) {
    injector.arm_element(fault, system, domain);
  }
  for (const AdaptiveFault& fault : injector.plan().adaptive_faults) {
    injector.arm_adaptive(fault, system, domain);
  }

  recovery::RecoveryManager manager(system);
  manager.watch();
  recovery::ProactiveScheduler scheduler(manager, seconds(1));
  scheduler.add_domain(domain, system.domain_n(domain));
  scheduler.start();

  control::ResponseControllerOptions copts;
  copts.interval_ns = millis(50);
  copts.law.min_period_ns = millis(300);  // floor the rotation rate: a short
                                          // run must not thrash recovery
  control::ResponseController controller(system, manager, scheduler, copts);
  controller.start();

  Oracle oracle(system.sim().telemetry());
  oracle.watch_recovery(manager);
  for (int i = 0; i < system.gm_n(); ++i) {
    oracle.watch_replica(0, system.gm_element(i).replica());
    oracle.watch_gm(system.gm_element(i));
  }
  for (int rank = 0; rank < system.domain_n(domain); ++rank) {
    if (rank != dissent.rank) {
      oracle.watch_replica(1, system.element(domain, rank).replica());
    }
  }

  core::ItdosClient& client = system.add_client();
  oracle.watch_party(client.party());
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:fault/PSum:1.0");

  std::size_t sent = 0;
  std::size_t completed = 0;
  // Traffic interleaved with idle windows: the duel needs wall-clock (sim
  // time) for retargets, control ticks and recovery cycles to play out.
  for (int round = 0; round < 8; ++round) {
    ++sent;
    const Result<cdr::Value> result = safe_invoke(
        system, client, ref, "add",
        cdr::Value::sequence({cdr::Value::int64(1)}), seconds(30));
    if (result.is_ok()) ++completed;
    system.sim().run_for(millis(100));
  }
  scheduler.stop();
  controller.stop();
  system.settle();
  ++sent;
  const Result<cdr::Value> last = safe_invoke(
      system, client, ref, "add", cdr::Value::sequence({cdr::Value::int64(1)}),
      seconds(30));
  if (last.is_ok()) ++completed;
  system.settle();

  oracle.check_liveness(completed, sent);
  oracle.check_expulsions(system.gm_element(0).state());
  oracle.check_membership(system.gm_element(0).state(), system.directory());

  const telemetry::Hub& hub = system.sim().telemetry();
  ScenarioResult result;
  result.name = "adaptive_adversary_vs_controller";
  result.seed = seed;
  result.violations = oracle.violations();
  result.requests_sent = sent;
  result.requests_completed = completed;
  result.expulsions = system.gm_element(0).state().expulsions();
  result.detection = result.expulsions > 0;
  result.rekeys = hub.tracer().count(telemetry::TraceKind::kGmRekey);
  result.view_changes = hub.tracer().count(telemetry::TraceKind::kBftNewView);
  result.membership_updates =
      hub.tracer().count(telemetry::TraceKind::kGmMembershipUpdate);
  result.recoveries_started = manager.stats().started;
  result.recoveries_completed = manager.stats().completed;
  result.recoveries_aborted = manager.stats().aborted;
  result.last_mttr_ns = manager.stats().last_mttr_ns;
  result.sheds = sum_shed_gauges(hub.metrics());
  result.adaptive_retargets = injector.retargets();
  result.control_adjustments = controller.adjustments();
  result.trace_jsonl = hub.tracer().export_jsonl();
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
  plan.seed = seed;
  plan.heal_time = SimTime{0};
  for (int i = 0; i < silent_count; ++i) {
    ReplicaFault fault;
    fault.rank = 3 - i;  // mute from the highest rank down
    fault.silent = true;
    plan.replica_faults.push_back(fault);
  }
  return run_cluster("silent_x" + std::to_string(silent_count), seed,
                     std::move(plan), 4, seconds(5));
}

}  // namespace itdos::fault
