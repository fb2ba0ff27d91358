// Host-clock cost of single calls into the crypto and cdr entry points, at
// the message sizes the workloads send (64 B requests, 16 KiB fragments).
#include <algorithm>
#include <chrono>
#include <functional>

#include "cdr/giop.hpp"
#include "crypto/cipher.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace itdos;

volatile std::uint8_t g_sink = 0;  // keeps results observable to the optimiser

/// Median over rounds of the mean time per call, each round ~4 ms.
double time_call(const std::function<std::uint8_t()>& call) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> rounds;
  for (int round = 0; round < 9; ++round) {
    int calls = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0;
    do {
      g_sink = static_cast<std::uint8_t>(g_sink + call());
      ++calls;
      elapsed = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    } while (elapsed < 4e6);
    rounds.push_back(elapsed / calls);
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds[rounds.size() / 2];
}

cdr::GiopMessage request_of(std::size_t payload_bytes) {
  cdr::RequestMessage request;
  request.request_id = RequestId(7);
  request.object_key = ObjectId(1);
  request.operation = "echo";
  request.interface_name = "IDL:perfbench/Calc:1.0";
  request.arguments =
      cdr::Value::sequence({cdr::Value::string(std::string(payload_bytes, 'x'))});
  return request;
}

}  // namespace

std::map<std::string, double> time_entry_points() {
  std::map<std::string, double> out;
  Rng rng(0x656e747279ULL);
  const Bytes key_bytes = rng.next_bytes(crypto::kSymmetricKeySize);
  const crypto::SymmetricKey key = crypto::SymmetricKey::from_bytes(key_bytes);
  const Bytes small = rng.next_bytes(64);
  const Bytes info = rng.next_bytes(16);
  const Bytes aad = rng.next_bytes(24);

  out["crypto.hmac_ns"] = time_call([&] { return crypto::hmac_sha256(key_bytes, small)[0]; });
  out["crypto.derive_key_ns"] =
      time_call([&] { return crypto::derive_key(key_bytes, "perfbench", info)[0]; });

  for (const auto& [suffix, size] : {std::pair<const char*, std::size_t>{"64", 64},
                                     std::pair<const char*, std::size_t>{"16k", 16384}}) {
    const Bytes plain = rng.next_bytes(size);
    std::uint64_t counter = 0;
    out[std::string("crypto.seal_ns.") + suffix] = time_call([&] {
      return crypto::seal(key, crypto::make_nonce(1, ++counter), aad, plain).back();
    });
    const Bytes sealed = crypto::seal(key, crypto::make_nonce(2, 1), aad, plain);
    out[std::string("crypto.open_ns.") + suffix] = time_call([&] {
      const Result<Bytes> opened = crypto::open(key, aad, sealed);
      return static_cast<std::uint8_t>(opened.is_ok() ? opened.value().size() : 0);
    });

    const cdr::GiopMessage request = request_of(size);
    out[std::string("cdr.encode_giop_ns.") + suffix] =
        time_call([&] { return cdr::encode_giop(request).back(); });
    const Bytes wire = cdr::encode_giop(request);
    out[std::string("cdr.parse_giop_ns.") + suffix] = time_call([&] {
      return static_cast<std::uint8_t>(cdr::parse_giop(wire).is_ok());
    });
  }
  return out;
}

}  // namespace perfbench
