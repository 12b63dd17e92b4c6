// Deterministic fault injection for the transport layer.
//
// The paper's PC-LAN platform (Appendix B.3) assumes a reliable exchange;
// growing the runtime toward a cross-process TCP mesh requires the opposite
// assumption — peers die, streams stall, bytes garble — and requires those
// failures to be *reproducible* so recovery can be tested as a contract
// rather than observed by luck. This module is that harness:
//
//   * A FaultPlan is a declarative schedule: a list of FaultRules, each
//     naming a site (a socket syscall class or a transport boundary hook),
//     a kind of fault, and a deterministic trigger — fire on the Nth
//     matching call at rank r / superstep s / stage k, or fire with a
//     seeded per-rank probability (chaos mode).
//   * A FaultInjector evaluates the plan. Transports consult it at their
//     injection points (core/exchange_engine.cpp syscall sites; the
//     deferred/eager boundary hooks in core/transport.cpp) and act out the
//     returned decision: pretend EINTR/EAGAIN, truncate the transfer,
//     shut down the endpoint, garble a received control byte, sleep, or
//     throw BspTransportError outright.
//
// Determinism contract: given the same plan, the same seed, and the same
// sequence of consultations per rank, the injector makes the same decisions.
// Counter-triggered rules count only calls that match the rule's static
// filters, so "the 3rd stage-1 recv of rank 2 in superstep 4" is a stable
// coordinate even when unrelated traffic shifts. Probability rules draw from
// a per-rank splitmix64 stream seeded from (plan seed, rank), so chaos runs
// replay exactly under a fixed seed and call sequence.
//
// Counters persist across the retry attempts of one Runtime::run(): a rule
// that fired during attempt 0 stays consumed, which is what lets a lethal
// injected fault be *transient* — the replay after recovery proceeds clean.
// Call reset() to re-arm the schedule for an independent run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace gbsp {

/// Where in the runtime a fault can fire.
enum class FaultSite {
  SendCall,  ///< socket transport: before a sendmsg() data-path call
  RecvCall,  ///< socket transport: before/within recv()/readv() calls
  PollCall,  ///< socket transport: before an idle poll()
  Deliver,   ///< any transport: at the top of boundary delivery for a rank
  Flush,     ///< any transport: where begin_exchange seals the sends
};

/// What the fault does at its site.
enum class FaultKind {
  Eintr,       ///< syscall sites: behave as if the call returned EINTR
  Eagain,      ///< syscall sites: behave as if the call returned EAGAIN
  ShortIo,     ///< syscall sites: truncate the transfer to `arg` bytes
  PeerHangup,  ///< shutdown(SHUT_RDWR) the endpoint: peers observe EOF
  CorruptByte, ///< recv sites: XOR 0xA5 into received control byte `arg`
  DelayUs,     ///< sleep `arg` microseconds, then proceed normally
  Abort,       ///< throw BspTransportError at the site (simulated death)
};

/// One deterministic trigger. All filter fields default to "match anything";
/// nth/count select which matching calls fire (counter mode) unless prob is
/// nonzero (probability mode).
struct FaultRule {
  FaultSite site = FaultSite::Deliver;
  FaultKind kind = FaultKind::Abort;
  int rank = -1;               ///< firing rank, -1 = any
  std::int64_t superstep = -1; ///< firing superstep, -1 = any
  int stage = -1;              ///< socket schedule stage k, -1 = any
  std::uint64_t nth = 0;       ///< first matching call that fires (0-based)
  std::uint64_t count = 1;     ///< consecutive matching calls that fire
  std::uint64_t arg = 0;       ///< ShortIo: bytes; CorruptByte: offset;
                               ///< DelayUs: microseconds
  double prob = 0.0;           ///< nonzero: fire per-call with this
                               ///< probability instead of counting
};

/// A complete injection schedule: rules plus the seed for probability rules.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;

  [[nodiscard]] bool empty() const { return rules.empty(); }
};

/// Parses the CLI/ops textual form: rules separated by ';', each rule a
/// comma-separated list of key=value pairs, e.g.
///
///   "site=recv,kind=corrupt,rank=1,step=2,nth=0,arg=0;
///    site=deliver,kind=abort,rank=0,step=3"
///
/// Keys: site (send|recv|poll|deliver|flush), kind (eintr|eagain|short|
/// hangup|corrupt|delay|abort), rank, step, stage, nth, count, arg, prob,
/// and seed (plan-level; last occurrence wins). Throws std::invalid_argument
/// with the offending token on malformed input.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

/// A seeded chaos schedule for soak tests: benign faults (EINTR, EAGAIN,
/// short I/O, small delays) at the socket syscall sites with probability
/// `benign_prob` each, plus — when `lethal` — one transient killer (a
/// deliver-site abort at a seed-derived rank and superstep) that recovery
/// must absorb exactly once.
[[nodiscard]] FaultPlan make_chaos_plan(std::uint64_t seed, double benign_prob,
                                        bool lethal,
                                        std::uint64_t lethal_superstep = 2);

/// Call-site coordinates handed to the injector at each consultation.
struct FaultContext {
  int rank = -1;
  std::uint64_t superstep = 0;
  int stage = -1;  ///< socket schedule stage, -1 outside a staged exchange
  int peer = -1;
};

/// Evaluates a FaultPlan. Thread-safe: workers consult it concurrently; all
/// rule state is guarded by one mutex (the injector is a test/ops harness,
/// not a hot-path component — when no injector is installed the transports
/// pay a single null check).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// What a firing rule tells the call site to do.
  struct Decision {
    FaultKind kind;
    std::uint64_t arg;
  };

  /// Consulted before a syscall or boundary action at `site`. Returns the
  /// first firing non-corruption rule's decision, or nullopt. Bumps fired().
  [[nodiscard]] std::optional<Decision> before_call(FaultSite site,
                                                    const FaultContext& ctx);

  /// Consulted after control bytes (stage preambles, header blocks) arrive:
  /// returns the byte offset a firing CorruptByte rule wants garbled, or
  /// nullopt. The caller applies the XOR so the corruption lands in the
  /// exact buffer the validation path will read.
  [[nodiscard]] std::optional<std::uint64_t> corrupt_offset(
      FaultSite site, const FaultContext& ctx);

  /// Total decisions handed out (i.e. faults actually injected).
  [[nodiscard]] std::uint64_t fired() const {
    return fired_.load(std::memory_order_relaxed);
  }

  /// Re-arms every counter and reseeds the probability streams — the same
  /// schedule replays from the top (a new, independent run).
  void reset();

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  [[nodiscard]] std::optional<Decision> decide(FaultSite site,
                                               const FaultContext& ctx,
                                               bool corruption_pass);
  [[nodiscard]] bool rule_matches(const FaultRule& r, FaultSite site,
                                  const FaultContext& ctx) const;
  [[nodiscard]] std::uint64_t& counter_slot(std::size_t rule, int rank);
  [[nodiscard]] double next_uniform(int rank);

  FaultPlan plan_;
  mutable std::mutex mu_;
  /// counters_[rule]: per-rank matching-call counts (index rank+1 so the
  /// watchdog's rank -1 has a slot; grown lazily).
  std::vector<std::vector<std::uint64_t>> counters_;
  std::vector<std::uint64_t> rng_state_;  ///< per-rank splitmix64 streams
  std::atomic<std::uint64_t> fired_{0};
};

/// Human-readable names (diagnostics and BspTransportError messages).
[[nodiscard]] const char* to_string(FaultSite s);
[[nodiscard]] const char* to_string(FaultKind k);

}  // namespace gbsp
