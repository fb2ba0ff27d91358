// The ITDOS benchmark: whole deployments driven open loop through the public
// API (ItdosSystem, Orb::invoke, RecoveryManager, fault::Oracle). METRICS.md
// in this directory defines every metric this program prints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "itdos/system_directory.hpp"

namespace perfbench {

enum class OpKind : std::uint8_t { kAdd, kEcho, kInc, kGet };

/// One entry of a workload's request mix.
struct MixEntry {
  OpKind op;
  std::size_t payload_bytes;  // echo only
  double weight;
};

/// A named workload: one f=1 domain, a client population and an open-loop
/// (Poisson) arrival stream on the sim clock.
struct Workload {
  std::string name;
  int sessions;             // ItdosClients, each warmed before measuring
  double rate_per_s;        // offered load
  int requests;             // arrivals per episode
  int episodes;             // fixed episodes (distinct sub-seeds) per run
  std::vector<MixEntry> mix;
  int batch_max_entries = 1;
  std::int64_t batch_max_hold_ns = 0;  // 0 keeps the default
  int pipeline_depth = 1;
  std::int64_t crash_primary_at_ns = -1;  // offset into the arrival window
  std::int64_t drain_ns;                  // sim time allowed past the window
  int probe_requests = 0;  // traced run only: one sustained window this long
};

const std::vector<Workload>& workloads();

enum Role : int { kClient, kPrimary, kBackup, kElement, kGm, kTimer, kRoleCount };
inline constexpr const char* kRoleNames[kRoleCount] = {"client", "primary", "backup",
                                                      "element", "gm",      "timer"};
inline constexpr int kBftKinds = 10;  // bft::MsgType 1..10

/// Outside-in instrumentation of one traced episode.
struct HostTrace {
  double busy_ns[kRoleCount] = {};
  double handler_ns[kBftKinds] = {};
  double handler_n[kBftKinds] = {};
  double bytes[kBftKinds] = {};
  std::uint64_t filtered_packets = 0;  // must equal net.packets_delivered
  std::uint64_t trace_dropped = 0;
  std::vector<double> to_primary_ns, agree_ns, deliver_ns;
  double staged_ns = 0;  // sum of the three stages over complete chains
};

/// Everything one episode (one fresh deployment, one arrival window) yields.
struct Episode {
  std::vector<std::string> errors;  // correctness failures; empty = correct
  std::uint64_t offered = 0, ok = 0, wrong = 0, failed = 0, overloaded = 0,
                starved = 0;
  std::vector<double> latency_ns;  // every offered request; +inf if not correct
  double window_ns = 0;            // span of the scheduled arrivals
  double outage_ns = 0;
  bool storm = false;              // cut by the simulator event budget
  double setup_wall_s = 0;
  double cpu_s = 0;                // process CPU time of the measured phase
  double latency_ok_sum_ns = 0;    // over correct replies (stage attribution)
  std::uint64_t fingerprint = 0;   // sim-clock outcomes + per-layer counts
  std::map<std::string, double> counts;  // deterministic per-layer raw sums
  HostTrace host;                        // traced episodes only
};

/// A probe episode reports an event storm through Episode::storm instead of
/// as a correctness error.
Episode run_episode(const Workload& w, std::uint64_t seed, bool traced, bool probe = false);

/// Wall seconds to build a deployment and open every session, nothing more.
double time_setup(const Workload& w, std::uint64_t seed);

/// Host-clock medians of timed calls into crypto and cdr entry points.
std::map<std::string, double> time_entry_points();

}  // namespace perfbench
