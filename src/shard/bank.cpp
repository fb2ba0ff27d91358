#include "shard/bank.hpp"

#include "cdr/wire.hpp"

namespace itdos::shard {

namespace {

/// True when `v` is a sequence of exactly `n` int64s — the argument shape
/// every bank op takes. Byzantine clients send arbitrary Values; a malformed
/// request must produce a deterministic exception reply, never UB.
bool int_seq(const cdr::Value& v, std::size_t n) {
  if (v.kind() != cdr::TypeKind::kSequence) return false;
  const std::vector<cdr::Value>& elems = v.elements();
  if (elems.size() != n) return false;
  for (const cdr::Value& e : elems) {
    if (e.kind() != cdr::TypeKind::kInt64) return false;
  }
  return true;
}

cdr::Value amount_args(std::int64_t amount) {
  return cdr::Value::sequence({cdr::Value::int64(amount)});
}

}  // namespace

// ---------------------------------------------------------------------------
// AccountServant
// ---------------------------------------------------------------------------

void AccountServant::dispatch(const std::string& operation,
                              const cdr::Value& arguments, orb::ServerContext&,
                              orb::ReplySinkPtr sink) {
  if (operation == "balance") {
    sink->reply(cdr::Value::int64(balance_));
    return;
  }
  if (operation == "deposit" || operation == "withdraw") {
    if (!int_seq(arguments, 1)) {
      sink->reply(error(Errc::kInvalidArgument, "expected [amount]"));
      return;
    }
    const std::int64_t amount = arguments.elements().front().as_int64();
    if (amount < 0) {
      sink->reply(error(Errc::kInvalidArgument, "negative amount"));
      return;
    }
    if (operation == "withdraw" && amount > balance_) {
      sink->reply(error(Errc::kInvalidArgument, "insufficient funds"));
      return;
    }
    balance_ += operation == "deposit" ? amount : -amount;
    sink->reply(cdr::Value::int64(balance_));
    return;
  }
  sink->reply(error(Errc::kInvalidArgument, "unknown op " + operation));
}

Result<Bytes> AccountServant::save_state() const { return wire::encode(balance_); }

Status AccountServant::load_state(ByteView state) {
  ITDOS_ASSIGN_OR_RETURN(balance_, wire::decode<std::int64_t>(state));
  return Status::ok();
}

// ---------------------------------------------------------------------------
// TellerServant
// ---------------------------------------------------------------------------

void TellerServant::dispatch(const std::string& operation,
                             const cdr::Value& arguments,
                             orb::ServerContext& context,
                             orb::ReplySinkPtr sink) {
  const auto account_of = [](const cdr::Value& v) {
    return ObjectId(static_cast<std::uint64_t>(v.as_int64()));
  };
  const auto routed = [](ObjectId account) {
    return ShardRouter::routed_ref(account, std::string(kAccountInterface));
  };

  if (operation == "deposit") {
    if (!int_seq(arguments, 2)) {
      sink->reply(error(Errc::kInvalidArgument, "expected [account, amount]"));
      return;
    }
    const ObjectId account = account_of(arguments.elements()[0]);
    const std::int64_t amount = arguments.elements()[1].as_int64();
    context.invoke_nested(routed(account), "deposit", amount_args(amount),
                          [sink](Result<cdr::Value> r) { sink->reply(std::move(r)); });
    return;
  }

  if (operation == "balance") {
    if (!int_seq(arguments, 1)) {
      sink->reply(error(Errc::kInvalidArgument, "expected [account]"));
      return;
    }
    context.invoke_nested(routed(account_of(arguments.elements()[0])), "balance",
                          cdr::Value::sequence({}),
                          [sink](Result<cdr::Value> r) { sink->reply(std::move(r)); });
    return;
  }

  if (operation == "transfer") {
    if (!int_seq(arguments, 3)) {
      sink->reply(error(Errc::kInvalidArgument, "expected [from, to, amount]"));
      return;
    }
    const ObjectId from = account_of(arguments.elements()[0]);
    const ObjectId to = account_of(arguments.elements()[1]);
    const std::int64_t amount = arguments.elements()[2].as_int64();
    // Withdraw at `from`, then deposit at `to` — two nested calls, usually
    // into two different shard domains. `context` is the element's long-
    // lived upcall context; the sink keeps the pending reply alive.
    context.invoke_nested(
        routed(from), "withdraw", amount_args(amount),
        [&context, sink, routed, to, amount](Result<cdr::Value> withdrew) {
          if (!withdrew.is_ok()) {
            sink->reply(std::move(withdrew));
            return;
          }
          const cdr::Value remaining = std::move(withdrew).take();
          context.invoke_nested(
              routed(to), "deposit", amount_args(amount),
              [sink, remaining](Result<cdr::Value> deposited) {
                if (!deposited.is_ok()) {
                  sink->reply(std::move(deposited));
                  return;
                }
                sink->reply(remaining);
              });
        });
    return;
  }

  sink->reply(error(Errc::kInvalidArgument, "unknown op " + operation));
}

// ---------------------------------------------------------------------------
// Bank
// ---------------------------------------------------------------------------

Bank Bank::build(core::ItdosSystem& system, const BankSpec& spec) {
  Bank bank;
  bank.system_ = &system;
  bank.spec_ = spec;
  for (int id = 1; id <= spec.accounts; ++id) {
    bank.accounts_.push_back(ObjectId(static_cast<std::uint64_t>(id)));
  }

  // Ownership by shard INDEX, computable before the domains (and their ids)
  // exist; partition_evenly() later registers exactly this assignment.
  std::vector<std::vector<ObjectId>> owned(
      static_cast<std::size_t>(spec.shards));
  for (const ObjectId id : bank.accounts_) {
    owned[ShardMap::even_slice(id, static_cast<std::size_t>(spec.shards))]
        .push_back(id);
  }

  ShardSpec topo;
  topo.shards = spec.shards;
  topo.f = spec.f;
  topo.policy = spec.policy;
  topo.front_domains = spec.tellers;
  topo.client_enclaves = spec.clients;
  topo.shard_servants = [owned, initial = spec.initial_balance](int index) {
    const std::vector<ObjectId> accounts = owned.at(static_cast<std::size_t>(index));
    return [accounts, initial](orb::ObjectAdapter& adapter, int) {
      for (const ObjectId id : accounts) {
        // Freshly built domain: the keys cannot collide.
        (void)adapter.activate_with_key(id, std::make_shared<AccountServant>(initial));
      }
    };
  };
  topo.front_servants = [](int) {
    return [](orb::ObjectAdapter& adapter, int) {
      // Freshly built domain: kTellerKey cannot collide.
      (void)adapter.activate_with_key(kTellerKey, std::make_shared<TellerServant>());
    };
  };
  bank.topo_ = ShardTopology::build(system, topo);
  return bank;
}

orb::ObjectRef Bank::teller_ref(int index) const {
  return system_->object_ref(topo_.front_domains().at(static_cast<std::size_t>(index)),
                             kTellerKey, std::string(kTellerInterface));
}

std::vector<ObjectId> Bank::accounts_of_shard(int index) const {
  std::vector<ObjectId> result;
  for (const ObjectId id : accounts_) {
    if (ShardMap::even_slice(id, static_cast<std::size_t>(spec_.shards)) ==
        static_cast<std::size_t>(index)) {
      result.push_back(id);
    }
  }
  return result;
}

}  // namespace itdos::shard
