// One episode: build a deployment, warm every session, offer one open-loop
// arrival window, referee every reply, and read the per-layer counts. In a
// traced episode the benchmark also times each Simulator::step() on the host
// clock and tags it with the node it ran for, through a pass-through inbound
// filter and outbound interceptor; nothing inside src/ is instrumented.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>

#include "bft/messages.hpp"
#include "cdr/codec.hpp"
#include "fault/oracle.hpp"
#include "itdos/system.hpp"
#include "perfbench.hpp"
#include "recovery/recovery_manager.hpp"

namespace perfbench {
namespace {

using namespace itdos;
using Clock = std::chrono::steady_clock;

constexpr const char* kCalcInterface = "IDL:perfbench/Calc:1.0";
constexpr const char* kCounterInterface = "IDL:perfbench/Counter:1.0";
constexpr int kMaxBacklog = 64;           // queued invokes tolerated per session
constexpr std::size_t kDrainEvents = 1 << 14;  // far below the tracer's 2^18 cap
constexpr double kInf = std::numeric_limits<double>::infinity();
// A healthy episode runs 30-100 simulator events per request. Far
// past that, the run is cut so it ends in bounded host time, and the
// episode is reported as failed.
constexpr std::uint64_t kEventsPerRequest = 1000;

/// Stateless arithmetic and echo (object key 1). Replacement needs every
/// servant persistable, so it saves an empty state.
class Calc : public orb::Servant {
 public:
  std::string interface_name() const override { return kCalcInterface; }
  void dispatch(const std::string& operation, const cdr::Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "add") {
      std::int64_t sum = 0;
      for (const cdr::Value& v : arguments.elements()) sum += v.as_int64();
      sink->reply(cdr::Value::int64(sum));
    } else if (operation == "echo") {
      sink->reply(arguments);
    } else {
      sink->reply(error(Errc::kInvalidArgument, "unknown operation"));
    }
  }
  Result<Bytes> save_state() const override { return Bytes{}; }
  Status load_state(ByteView) override { return Status::ok(); }
};

/// A persistent counter (object key 2): `inc` is the write, `get` the read.
class Counter : public orb::Servant {
 public:
  std::string interface_name() const override { return kCounterInterface; }
  void dispatch(const std::string& operation, const cdr::Value&,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "inc") {
      sink->reply(cdr::Value::int64(++total_));
    } else if (operation == "get") {
      sink->reply(cdr::Value::int64(total_));
    } else {
      sink->reply(error(Errc::kInvalidArgument, "unknown operation"));
    }
  }
  Result<Bytes> save_state() const override {
    cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
    enc.write_int64(total_);
    return enc.take();
  }
  Status load_state(ByteView state) override {
    cdr::Decoder dec(state, cdr::ByteOrder::kLittleEndian);
    ITDOS_ASSIGN_OR_RETURN(total_, dec.read_int64());
    return Status::ok();
  }

 private:
  std::int64_t total_ = 0;
};

void install_servants(orb::ObjectAdapter& adapter, int) {
  // Keys 1 and 2 are free in a freshly built domain; activation cannot fail.
  (void)adapter.activate_with_key(ObjectId(1), std::make_shared<Calc>());
  (void)adapter.activate_with_key(ObjectId(2), std::make_shared<Counter>());
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void add(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ULL;
    }
    add(s.size());
  }
};

struct Request {
  enum class Outcome : std::uint8_t { kPending, kOk, kWrong, kFailed, kOverloaded, kStarved };
  std::int64_t due_ns = 0;  // scheduled arrival, absolute sim time
  OpKind op = OpKind::kAdd;
  std::int64_t a = 0, b = 0;  // add operands
  int payload = -1;           // echo payload index
  std::int64_t lo = 0;        // get: writes acknowledged before dispatch
  std::int64_t done_ns = -1;
  Outcome outcome = Outcome::kPending;
};

/// Which part of the deployment a node belongs to, for host attribution.
struct NodeInfo {
  Role role = kGm;
  bool bft_endpoint = false;  // receives bft::Envelope traffic
  bool server_replica = false;
};

/// Per-request timestamps rebuilt from the program's own trace events.
struct Chain {
  std::int64_t sent = -1, pre_prepare = -1, execute = -1, decided = -1;
};

class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed, bool traced, bool probe)
      : w_(w), seed_(seed), traced_(traced), probe_(probe), rng_(seed ^ 0x70657266ULL) {}
  ~Runner() { *alive_ = false; }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  Episode run() {
    const Clock::time_point t0 = Clock::now();
    set_up();
    out_.setup_wall_s = since(t0) * 1e-9;
    measure();
    finish();
    return std::move(out_);
  }

  double set_up_only() {
    const Clock::time_point t0 = Clock::now();
    set_up();
    return since(t0) * 1e-9;
  }

 private:
  net::Simulator& sim() { return system_->sim(); }

  void set_up() {
    core::SystemOptions options;
    options.seed = seed_;
    options.timing.batch_max_entries = w_.batch_max_entries;
    if (w_.batch_max_hold_ns > 0) options.timing.batch_max_hold_ns = w_.batch_max_hold_ns;
    options.timing.pipeline_depth = w_.pipeline_depth;
    system_ = std::make_unique<core::ItdosSystem>(options);
    domain_ = system_->add_domain(1, core::VotePolicy::exact(), install_servants);

    if (w_.crash_primary_at_ns >= 0) {
      manager_ = std::make_unique<recovery::RecoveryManager>(*system_);
      manager_->watch();
      oracle_ = std::make_unique<fault::Oracle>(sim().telemetry());
      oracle_->watch_recovery(*manager_);
      for (int i = 0; i < system_->gm_n(); ++i) {
        oracle_->watch_replica(0, system_->gm_element(i).replica());
        oracle_->watch_gm(system_->gm_element(i));
      }
      for (int rank = 0; rank < system_->domain_n(domain_); ++rank) {
        oracle_->watch_replica(1, system_->element(domain_, rank).replica());
      }
    }
    for (int i = 0; i < w_.sessions; ++i) {
      clients_.push_back(&system_->add_client());
      if (oracle_) oracle_->watch_party(clients_.back()->party());
    }
    outstanding_.assign(clients_.size(), 0);
    calc_ = system_->object_ref(domain_, ObjectId(1), kCalcInterface);
    counter_ = system_->object_ref(domain_, ObjectId(2), kCounterInterface);

    // Echo payloads: a few random blobs per size, picked per request.
    for (const MixEntry& m : w_.mix) {
      if (m.op != OpKind::kEcho) continue;
      for (int k = 0; k < 4; ++k) {
        std::string blob(m.payload_bytes, ' ');
        for (char& c : blob) c = static_cast<char>('a' + rng_.next_below(26));
        payloads_.push_back(cdr::Value::sequence({cdr::Value::string(std::move(blob))}));
        payload_size_.push_back(m.payload_bytes);
      }
    }

    warm_sessions();

    // Poisson arrivals conditioned on their count: `requests` uniform times
    // in the window, sorted.
    const auto horizon =
        static_cast<std::int64_t>(static_cast<double>(w_.requests) / w_.rate_per_s * 1e9);
    std::vector<std::int64_t> offsets;
    for (int i = 0; i < w_.requests; ++i) {
      offsets.push_back(static_cast<std::int64_t>(rng_.next_below(
          static_cast<std::uint64_t>(horizon))));
    }
    std::sort(offsets.begin(), offsets.end());
    double total_weight = 0;
    for (const MixEntry& m : w_.mix) total_weight += m.weight;
    start_ = sim().now().ns + micros(100);
    deadline_ = start_ + horizon + w_.drain_ns;
    for (const std::int64_t offset : offsets) {
      Request r;
      r.due_ns = start_ + offset;
      double roll = rng_.next_double() * total_weight;
      const MixEntry* pick = &w_.mix.back();
      for (const MixEntry& m : w_.mix) {
        roll -= m.weight;
        if (roll < 0) {
          pick = &m;
          break;
        }
      }
      r.op = pick->op;
      if (r.op == OpKind::kAdd) {
        r.a = rng_.next_in(-(std::int64_t{1} << 40), std::int64_t{1} << 40);
        r.b = rng_.next_in(-(std::int64_t{1} << 40), std::int64_t{1} << 40);
      } else if (r.op == OpKind::kEcho) {
        std::vector<int> fits;
        for (std::size_t k = 0; k < payloads_.size(); ++k) {
          if (payload_size_[k] == pick->payload_bytes) fits.push_back(static_cast<int>(k));
        }
        r.payload = fits[rng_.next_below(fits.size())];
      }
      requests_.push_back(r);
    }
    out_.offered = requests_.size();
    out_.window_ns = static_cast<double>(offsets.back() - offsets.front());
  }

  /// Opens every session (GM open request, DPRF key shares) before the clock
  /// starts, so connection set-up is not part of the measured phase.
  void warm_sessions() {
    // Shared: a reply that misses the limit may still land later.
    auto pending = std::make_shared<std::pair<int, int>>(static_cast<int>(clients_.size()), 0);
    for (core::ItdosClient* client : clients_) {
      client->orb().invoke(counter_, "get", cdr::Value::sequence({}),
                           [pending](Result<cdr::Value> result) {
                             --pending->first;
                             if (!result.is_ok()) ++pending->second;
                           });
    }
    const SimTime limit = sim().now() + seconds(5);
    while (pending->first > 0 && sim().now() < limit && sim().step()) {
    }
    if (pending->first > 0 || pending->second > 0) {
      out_.errors.push_back("a session failed to open");
    }
  }

  void measure() {
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      sim().schedule_at(SimTime{requests_[i].due_ns},
                        [this, i, alive = alive_] {
                          if (*alive) dispatch(i);
                        });
    }
    if (w_.crash_primary_at_ns >= 0) {
      sim().schedule_at(SimTime{start_ + w_.crash_primary_at_ns},
                        [this, alive = alive_] {
                          if (*alive) system_->crash_element(domain_, 0);
                        });
    }
    base_counters_ = snapshot();
    base_events_ = sim().events_executed();
    base_copies_ = BufStats::copies;
    base_bytes_copied_ = BufStats::bytes_copied;
    if (traced_) install_filters();

    const double cpu0 = cpu_seconds();
    const std::uint64_t budget = base_events_ + kEventsPerRequest * requests_.size();
    while (sim().now().ns < deadline_ && !finished()) {
      if (!step()) break;
      if (sim().events_executed() > budget) {
        out_.storm = true;
        if (!probe_) {
          out_.errors.push_back("event storm: " + std::to_string(kEventsPerRequest) +
                                " simulator events per request spent by sim time " +
                                std::to_string(sim().now().ns - start_) + " ns");
        }
        break;
      }
    }
    out_.cpu_s = cpu_seconds() - cpu0;
    end_ns_ = sim().now().ns;
  }

  bool finished() const {
    if (finished_ < requests_.size()) return false;
    if (!manager_) return true;
    return !manager_->busy(domain_) && manager_->stats().completed > 0;
  }

  bool step() {
    if (!traced_) return sim().step();
    step_role_ = kTimer;
    step_tagged_ = false;
    step_kind_ = -1;
    filter_ns_ = 0;
    const Clock::time_point t0 = Clock::now();
    const bool ran = sim().step();
    const double dt = since(t0) - filter_ns_;
    out_.host.busy_ns[step_role_] += dt;
    if (step_kind_ >= 0) {
      out_.host.handler_ns[step_kind_] += dt;
      out_.host.handler_n[step_kind_] += 1;
    }
    if (sim().telemetry().tracer().events().size() >= kDrainEvents) drain_tracer();
    return ran;
  }

  void dispatch(std::size_t i) {
    step_role_ = kClient;
    step_tagged_ = true;
    Request& r = requests_[i];
    std::size_t slot = clients_.size();
    for (std::size_t probe = 0; probe < clients_.size(); ++probe) {
      const std::size_t s = (cursor_ + probe) % clients_.size();
      if (slot == clients_.size() || outstanding_[s] < outstanding_[slot]) slot = s;
    }
    cursor_ = (cursor_ + 1) % clients_.size();
    if (outstanding_[slot] >= kMaxBacklog) {
      r.outcome = Request::Outcome::kStarved;
      ++finished_;
      return;
    }
    ++outstanding_[slot];
    const orb::ObjectRef* ref = &calc_;
    std::string operation;
    cdr::Value arguments;
    switch (r.op) {
      case OpKind::kAdd:
        operation = "add";
        arguments = cdr::Value::sequence({cdr::Value::int64(r.a), cdr::Value::int64(r.b)});
        break;
      case OpKind::kEcho:
        operation = "echo";
        arguments = payloads_[static_cast<std::size_t>(r.payload)];
        break;
      case OpKind::kInc:
        ref = &counter_;
        operation = "inc";
        arguments = cdr::Value::sequence({});
        ++writes_dispatched_;
        break;
      case OpKind::kGet:
        ref = &counter_;
        operation = "get";
        arguments = cdr::Value::sequence({});
        r.lo = writes_acked_;
        break;
    }
    clients_[slot]->orb().invoke(
        *ref, operation, std::move(arguments),
        [this, i, slot, alive = alive_](Result<cdr::Value> result) {
          if (*alive) complete(i, slot, result);
        });
  }

  void complete(std::size_t i, std::size_t slot, const Result<cdr::Value>& result) {
    --outstanding_[slot];
    ++finished_;
    Request& r = requests_[i];
    r.done_ns = sim().now().ns;
    if (!result.is_ok()) {
      r.outcome = result.status().code() == Errc::kResourceExhausted
                      ? Request::Outcome::kOverloaded
                      : Request::Outcome::kFailed;
      return;
    }
    const cdr::Value& v = result.value();
    const bool is_int = v.kind() == cdr::TypeKind::kInt64;
    bool right = false;
    switch (r.op) {
      case OpKind::kAdd:
        right = is_int && v.as_int64() == r.a + r.b;
        break;
      case OpKind::kEcho:
        right = v == payloads_[static_cast<std::size_t>(r.payload)];
        break;
      case OpKind::kInc:
        // Writes are totally ordered, so each acknowledged write returns a
        // distinct total no larger than the writes issued so far.
        right = is_int && v.as_int64() >= 1 && v.as_int64() <= writes_dispatched_ &&
                write_totals_.insert(v.as_int64()).second;
        if (right) ++writes_acked_;
        break;
      case OpKind::kGet:
        // A read sees every write acknowledged before it was issued.
        right = is_int && v.as_int64() >= r.lo && v.as_int64() <= writes_dispatched_;
        break;
    }
    r.outcome = right ? Request::Outcome::kOk : Request::Outcome::kWrong;
    if (!right && out_.errors.size() < 8) {
      out_.errors.push_back("wrong reply to request " + std::to_string(i));
    }
  }

  std::map<std::string, std::int64_t> snapshot() const {
    std::map<std::string, std::int64_t> values;
    const telemetry::MetricsRegistry& reg = system_->sim().telemetry().metrics();
    for (const auto& [name, counter] : reg.counters()) {
      values[name] = static_cast<std::int64_t>(counter.value());
    }
    return values;
  }

  // --- host attribution (traced episodes) ---

  void install_filters() {
    std::uint64_t max_node = 0;
    const auto note = [&](NodeId node, NodeInfo info) {
      nodes_[node] = info;
      max_node = std::max(max_node, node.value);
    };
    const core::SystemDirectory& dir = system_->directory();
    for (const core::ElementInfo& e : dir.gm().elements) {
      note(e.bft_node, {kGm, true, false});
      note(e.smiop_node, {kGm, false, false});
      note(e.gm_client_node, {kGm, true, false});
      note(e.self_client_node, {kGm, true, false});
    }
    for (const auto& [id, info] : dir.domains()) {
      for (const core::ElementInfo& e : info.elements) {
        note(e.bft_node, {kBackup, true, true});
        note(e.smiop_node, {kElement, false, false});
        note(e.gm_client_node, {kElement, true, false});
        note(e.self_client_node, {kElement, true, false});
      }
    }
    primary_ = dir.find_domain(domain_)->elements.at(0).bft_node;
    for (core::ItdosClient* client : clients_) {
      for (const NodeId node : client->party().transport_nodes()) {
        note(node, {kClient, node != client->smiop_node(), false});
      }
    }
    // Replacement identities are allocated later, above every current id;
    // the hooks are installed ahead of them, and the filter's packet count
    // is checked against net.packets_delivered so a missed node shows.
    for (std::uint64_t id = 1; id <= max_node + 1024; ++id) {
      system_->network().set_inbound_filter(
          NodeId(id), [this](const net::Packet& packet) { return observe(packet); });
      system_->network().set_interceptor(
          NodeId(id), [this](const net::Packet& packet) -> std::optional<BufView> {
            observe_send(packet);
            return packet.payload;
          });
    }
    sim().telemetry().tracer().clear();
  }

  const NodeInfo& classify(NodeId node) {
    auto it = nodes_.find(node);
    if (it != nodes_.end()) return it->second;
    // First sight of a node: a replacement element, or the recovery
    // authority's GM client (counted with the Group Manager).
    NodeInfo info{kGm, true, false};
    for (const core::ElementInfo& e : system_->directory().find_domain(domain_)->elements) {
      if (node == e.bft_node) info = {kBackup, true, true};
      if (node == e.smiop_node) info = {kElement, false, false};
      if (node == e.gm_client_node || node == e.self_client_node) info = {kElement, true, false};
    }
    return nodes_.emplace(node, info).first->second;
  }

  Role role_of(NodeId node, const NodeInfo& info) const {
    if (!info.server_replica) return info.role;
    return node == primary_ ? kPrimary : kBackup;
  }

  /// A step that delivers no packet (a timer, or a deferred hand-off such as
  /// an element's queue consumption) belongs to the node that sends first.
  void observe_send(const net::Packet& packet) {
    if (step_tagged_) return;
    const Clock::time_point t0 = Clock::now();
    step_tagged_ = true;
    step_role_ = role_of(packet.from, classify(packet.from));
    filter_ns_ += since(t0);
  }

  bool observe(const net::Packet& packet) {
    const Clock::time_point t0 = Clock::now();
    ++out_.host.filtered_packets;
    const NodeInfo& info = classify(packet.to);
    step_tagged_ = true;
    if (info.bft_endpoint) {
      // The decode's own buffer copies are the benchmark's, not the program's.
      const std::uint64_t copies = BufStats::copies, bytes_copied = BufStats::bytes_copied;
      const Result<bft::Envelope> env = bft::Envelope::decode(packet.payload);
      BufStats::copies = copies;
      BufStats::bytes_copied = bytes_copied;
      if (env.is_ok()) {
        const int kind = static_cast<int>(env.value().type) - 1;
        if (kind >= 0 && kind < kBftKinds) {
          step_kind_ = kind;
          out_.host.bytes[kind] += static_cast<double>(packet.payload.size());
        }
        if (info.server_replica && (env.value().type == bft::MsgType::kPrePrepare ||
                                    env.value().type == bft::MsgType::kNewView)) {
          primary_ = env.value().sender;
        }
      }
    }
    step_role_ = role_of(packet.to, info);
    filter_ns_ += since(t0);
    return true;
  }

  /// Moves the tracer's events out before its cap can drop any, keeping the
  /// per-request timestamps the stage breakdown needs.
  void drain_tracer() {
    telemetry::Tracer& tracer = sim().telemetry().tracer();
    for (const telemetry::TraceEvent& ev : tracer.events()) {
      if (ev.trace == 0) continue;
      switch (ev.kind) {
        case telemetry::TraceKind::kSmiopRequestSent: {
          Chain& c = chains_[ev.trace];
          if (c.sent < 0) c.sent = ev.t.ns;
          out_.counts["itdos.requests_sent"] += 1;
          out_.counts["itdos.fragments"] += static_cast<double>(ev.b);
          break;
        }
        case telemetry::TraceKind::kBftPrePrepare:
          if (auto it = chains_.find(ev.trace); it != chains_.end() && it->second.pre_prepare < 0) {
            it->second.pre_prepare = ev.t.ns;
          }
          break;
        case telemetry::TraceKind::kBftExecute:
          if (auto it = chains_.find(ev.trace); it != chains_.end() && it->second.execute < 0) {
            it->second.execute = ev.t.ns;
          }
          break;
        case telemetry::TraceKind::kSmiopReplyDecided:
          if (auto it = chains_.find(ev.trace); it != chains_.end() && it->second.decided < 0) {
            it->second.decided = ev.t.ns;
          }
          break;
        default:
          break;
      }
    }
    out_.host.trace_dropped += tracer.dropped();
    tracer.clear();
  }

  // --- results ---

  void finish() {
    if (traced_) drain_tracer();
    for (Request& r : requests_) {
      if (r.outcome == Request::Outcome::kPending) r.outcome = Request::Outcome::kFailed;
    }
    check_counter_and_oracle();

    Fnv fp;
    std::vector<std::pair<std::int64_t, int>> timeline;  // (t, +1 arrival / 0 ok / -1 other)
    for (const Request& r : requests_) {
      fp.add(static_cast<std::uint64_t>(r.outcome));
      fp.add(static_cast<std::uint64_t>(r.done_ns));
      switch (r.outcome) {
        case Request::Outcome::kOk:
          ++out_.ok;
          out_.latency_ns.push_back(static_cast<double>(r.done_ns - r.due_ns));
          out_.latency_ok_sum_ns += static_cast<double>(r.done_ns - r.due_ns);
          break;
        case Request::Outcome::kWrong:
          ++out_.wrong;
          break;
        case Request::Outcome::kOverloaded:
          ++out_.overloaded;
          break;
        case Request::Outcome::kStarved:
          ++out_.starved;
          break;
        default:
          ++out_.failed;
          break;
      }
      if (r.outcome != Request::Outcome::kOk) out_.latency_ns.push_back(kInf);
      if (r.outcome == Request::Outcome::kStarved) continue;
      timeline.emplace_back(r.due_ns, 1);
      const std::int64_t done = r.done_ns >= 0 ? r.done_ns : end_ns_;
      timeline.emplace_back(done, r.outcome == Request::Outcome::kOk ? 0 : -1);
    }
    out_.outage_ns = longest_outage(std::move(timeline));

    const std::map<std::string, std::int64_t> now = snapshot();
    std::map<std::string, double>& c = out_.counts;
    const auto sum = [&](std::string_view prefix, std::string_view suffix) {
      double total = 0;
      for (const auto& [name, value] : now) {
        if (name.starts_with(prefix) && name.ends_with(suffix)) {
          const auto base = base_counters_.find(name);
          total += static_cast<double>(value - (base == base_counters_.end() ? 0 : base->second));
        }
      }
      return total;
    };
    const auto max_of = [&](std::string_view prefix, std::string_view suffix) {
      double best = 0;
      for (const auto& [name, value] : now) {
        if (name.starts_with(prefix) && name.ends_with(suffix)) {
          const auto base = base_counters_.find(name);
          best = std::max(best, static_cast<double>(
                                    value - (base == base_counters_.end() ? 0 : base->second)));
        }
      }
      return best;
    };
    c["ok"] = static_cast<double>(out_.ok);
    c["starved"] = static_cast<double>(out_.starved);
    c["not_ok"] = static_cast<double>(out_.offered - out_.ok);
    c["net.packets"] = sum("net.packets_delivered", "");
    c["net.bytes"] = sum("net.bytes_delivered", "");
    c["net.events"] = static_cast<double>(sim().events_executed() - base_events_);
    c["buf.copies"] = static_cast<double>(BufStats::copies - base_copies_);
    c["buf.bytes_copied"] = static_cast<double>(BufStats::bytes_copied - base_bytes_copied_);
    c["bft.macs"] = sum("bft.", ".macs_computed");
    c["bft.slots"] = sum("bft.", ".pre_prepares_sent");
    c["bft.view_changes"] = sum("bft.", ".new_views_sent");
    c["bft.state_transfers"] = sum("bft.", ".state_transfers");
    c["itdos.votes_decided"] = sum("smiop.", ".votes_decided");
    c["itdos.replies_received"] = sum("smiop.", ".replies_received");
    c["itdos.votes_timed_out"] = sum("smiop.", ".votes_timed_out");
    c["gm.expulsions"] = max_of("gm.", ".expulsions");
    c["gm.rekeys"] = max_of("gm.", ".rekeys");
    c["recovery.completed"] = sum("recovery.completed", "");
    c["recovery.aborted"] = sum("recovery.aborted", "");

    const telemetry::MetricsRegistry& reg = sim().telemetry().metrics();
    for (const auto& [name, gauge] : reg.gauges()) {
      if (name.starts_with("queue.") && name.ends_with(".depth")) {
        c["itdos.queue_depth_peak"] =
            std::max(c["itdos.queue_depth_peak"], static_cast<double>(gauge.peak()));
      }
      fp.add(name);
      fp.add(static_cast<std::uint64_t>(gauge.peak()));
    }
    if (const telemetry::Histogram* h = reg.find_histogram("batch.size")) {
      c["batch.slots"] = static_cast<double>(h->count());
      c["batch.entries"] = h->mean() * static_cast<double>(h->count());
    }
    if (const telemetry::Histogram* h = reg.find_histogram("batch.hold_ns")) {
      c["batch.hold_p50_ns"] = static_cast<double>(h->percentile(50.0));
    }
    if (const telemetry::Histogram* h = reg.find_histogram("recovery.mttr_ns")) {
      c["recovery.mttr_ns_sum"] = h->mean() * static_cast<double>(h->count());
      c["recovery.mttr_n"] = static_cast<double>(h->count());
    }

    for (const auto& [name, value] : now) {
      fp.add(name);
      fp.add(static_cast<std::uint64_t>(value));
    }
    fp.add(sim().events_executed() - base_events_);
    fp.add(static_cast<std::uint64_t>(end_ns_));
    fp.add(BufStats::copies - base_copies_);
    fp.add(BufStats::bytes_copied - base_bytes_copied_);
    out_.fingerprint = fp.h;

    if (traced_) finish_trace();
  }

  /// Longest stretch with requests outstanding and no correct reply landing.
  /// Each entry is (time, +1 arrival | 0 correct reply | -1 other outcome).
  double longest_outage(std::vector<std::pair<std::int64_t, int>> timeline) const {
    std::stable_sort(timeline.begin(), timeline.end(),
                     [](const auto& x, const auto& y) { return x.first < y.first; });
    std::int64_t outstanding = 0;
    std::int64_t gap_start = 0;
    std::int64_t longest = 0;
    for (const auto& [t, kind] : timeline) {
      if (kind == 1) {
        if (outstanding++ == 0) gap_start = t;
        continue;
      }
      --outstanding;
      if (kind == 0 || outstanding == 0) {
        longest = std::max(longest, t - gap_start);
        gap_start = t;
      }
    }
    return static_cast<double>(longest);
  }

  void check_counter_and_oracle() {
    if (!manager_) return;
    if (manager_->stats().completed == 0) {
      out_.errors.push_back("the crashed primary was never replaced");
    }
    // The final counter must hold every acknowledged write and no write
    // that was never issued.
    auto read = std::make_shared<std::pair<bool, std::int64_t>>(false, -1);  // done, total
    clients_.front()->orb().invoke(counter_, "get", cdr::Value::sequence({}),
                                   [read](Result<cdr::Value> result) {
                                     read->first = true;
                                     if (result.is_ok() &&
                                         result.value().kind() == cdr::TypeKind::kInt64) {
                                       read->second = result.value().as_int64();
                                     }
                                   });
    const SimTime limit = sim().now() + seconds(5);
    while (!read->first && sim().now() < limit && sim().step()) {
    }
    const std::int64_t final_total = read->second;
    if (final_total < writes_acked_ || final_total > writes_dispatched_) {
      out_.errors.push_back("final counter " + std::to_string(final_total) + " outside [" +
                            std::to_string(writes_acked_) + ", " +
                            std::to_string(writes_dispatched_) + "]");
    }
    std::size_t dispatched = 0, ok = 0;
    for (const Request& r : requests_) {
      if (r.outcome != Request::Outcome::kStarved) ++dispatched;
      if (r.outcome == Request::Outcome::kOk) ++ok;
    }
    oracle_->check_liveness(ok, dispatched);
    oracle_->check_expulsions(system_->gm_element(0).state());
    oracle_->check_membership(system_->gm_element(0).state(), system_->directory());
    for (const fault::Violation& v : oracle_->violations()) {
      out_.errors.push_back("oracle: " + std::string(fault::violation_kind_name(v.kind)) +
                            " " + v.detail);
    }
  }

  void finish_trace() {
    HostTrace& h = out_.host;
    for (const auto& [trace, chain] : chains_) {
      if (chain.sent < 0 || chain.pre_prepare < 0 || chain.execute < 0 || chain.decided < 0) {
        continue;
      }
      h.to_primary_ns.push_back(static_cast<double>(chain.pre_prepare - chain.sent));
      h.agree_ns.push_back(static_cast<double>(chain.execute - chain.pre_prepare));
      h.deliver_ns.push_back(static_cast<double>(chain.decided - chain.execute));
      h.staged_ns += static_cast<double>(chain.decided - chain.sent);
    }
    const double delivered = out_.counts["net.packets"];
    if (static_cast<double>(h.filtered_packets) != delivered) {
      out_.errors.push_back("host attribution saw " + std::to_string(h.filtered_packets) +
                            " of " + std::to_string(static_cast<std::uint64_t>(delivered)) +
                            " delivered packets");
    }
  }

  const Workload& w_;
  std::uint64_t seed_;
  bool traced_;
  bool probe_;
  Rng rng_;
  Episode out_;

  std::unique_ptr<core::ItdosSystem> system_;
  std::unique_ptr<recovery::RecoveryManager> manager_;  // before system_ dies
  std::unique_ptr<fault::Oracle> oracle_;
  DomainId domain_;
  std::vector<core::ItdosClient*> clients_;
  orb::ObjectRef calc_, counter_;
  std::vector<cdr::Value> payloads_;
  std::vector<std::size_t> payload_size_;

  std::vector<Request> requests_;
  std::vector<int> outstanding_;
  std::size_t cursor_ = 0;
  std::size_t finished_ = 0;
  std::int64_t writes_dispatched_ = 0, writes_acked_ = 0;
  std::set<std::int64_t> write_totals_;
  std::int64_t start_ = 0, deadline_ = 0, end_ns_ = 0;

  std::map<std::string, std::int64_t> base_counters_;
  std::uint64_t base_events_ = 0, base_copies_ = 0, base_bytes_copied_ = 0;

  std::map<NodeId, NodeInfo> nodes_;
  NodeId primary_;
  Role step_role_ = kTimer;
  bool step_tagged_ = false;
  int step_kind_ = -1;
  double filter_ns_ = 0;
  std::map<std::uint64_t, Chain> chains_;

  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace

Episode run_episode(const Workload& w, std::uint64_t seed, bool traced, bool probe) {
  return Runner(w, seed, traced, probe).run();
}

double time_setup(const Workload& w, std::uint64_t seed) {
  return Runner(w, seed, false, false).set_up_only();
}

}  // namespace perfbench
