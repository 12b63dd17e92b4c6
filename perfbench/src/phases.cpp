// Communication-only operations: h-relation phases, alltoallv, application
// skeleton replays, set-up, and the per-layer probes of the traced run.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/barrier.hpp"
#include "core/collectives.hpp"
#include "core/transport.hpp"
#include "core/transport_shm.hpp"
#include "core/transport_socket.hpp"
#include "cost/fit.hpp"

namespace pb {
namespace {

using gbsp::DeliveryStrategy;
using gbsp::Message;
using gbsp::RunStats;
using gbsp::Runtime;
using gbsp::Worker;
using Args = std::vector<std::pair<std::string, double>>;

constexpr std::size_t kPacket = 16;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Counters a Runtime::run exposes, attached to its span.
Args run_args(const RunStats& st, const Runtime& rt, std::uint64_t slabs0,
              std::uint64_t allocs0, double cpu0, double wall_us) {
  double sent_packets = 0;
  for (const auto& tr : st.traces) {
    for (const auto& r : tr) sent_packets += static_cast<double>(r.sent_packets);
  }
  return {{"S", static_cast<double>(st.S())},
          {"H", static_cast<double>(st.H())},
          {"W_ms", st.W_s() * 1e3},
          {"work_ms", st.total_work_s() * 1e3},
          {"packets", sent_packets},
          {"wire_bytes", static_cast<double>(st.total_wire_bytes())},
          {"wire_syscalls", static_cast<double>(st.total_wire_syscalls())},
          {"zc_bytes", static_cast<double>(st.total_wire_zc_bytes())},
          {"fresh_slabs",
           static_cast<double>(rt.slab_pool().fresh_allocations() - slabs0)},
          {"allocs", static_cast<double>(alloc_count() - allocs0)},
          {"cpu_us", process_cpu_us() - cpu0},
          {"wall_us", wall_us}};
}

}  // namespace

RunStats traced_run(Runtime& rt, Ctx& ctx, const std::string& name,
                    std::uint32_t parent,
                    const std::function<void(Worker&)>& fn, double* wall_us,
                    std::uint32_t* span_id) {
  const std::uint64_t slabs0 = rt.slab_pool().fresh_allocations();
  const std::uint64_t allocs0 = alloc_count();
  const double cpu0 = process_cpu_us();
  const double t0 = now_us();
  RunStats st = rt.run(fn);
  const double t1 = now_us();
  if (wall_us != nullptr) *wall_us = t1 - t0;
  const std::uint32_t id =
      ctx.rec.span(name, kCallerTrack, parent, t0, t1,
                   ctx.rec.tracing
                       ? run_args(st, rt, slabs0, allocs0, cpu0, t1 - t0)
                       : Args{});
  if (span_id != nullptr) *span_id = id;
  return st;
}

namespace {

/// Supersteps of a phase batch that get worker spans: enough for the
/// per-superstep medians, few enough that a long traced run stays small.
constexpr int kTracedSteps = 64;

/// Untimed supersteps at the start of every phase sample. The first
/// supersteps of a run find caches cold after the operation before it and
/// cost 3-4x a steady one, so their share of a sample would follow whatever
/// ran in between.
constexpr int kWarmSteps = 4;

/// Per-superstep worker spans, buffered per worker and recorded after the
/// timed loop so the recorder's lock is never taken inside it.
struct WorkerSpans {
  struct Entry {
    const char* name;
    double t0, t1;
    double k;
  };
  std::vector<Entry> entries;
  void flush(Recorder& rec, int track, std::uint32_t parent) {
    for (const Entry& e : entries) {
      rec.span(e.name, track, parent, e.t0, e.t1, {{"k", e.k}});
    }
    entries.clear();
  }
};

/// Largest p the per-worker counters below hold.
constexpr int kMaxProcs = 64;

/// One worker's scratch. Slots are cache-line aligned and the send buffer is
/// at least a page, so no two workers ever write to one cache line: shared
/// lines would make the timings depend on where the heap placed them.
struct alignas(64) WorkerSlot {
  std::vector<std::byte> buf;
  std::array<std::uint64_t, 2 * kMaxProcs> got{};  ///< [src] count, [p + src] bytes
  WorkerSpans spans;
};

std::vector<WorkerSlot> make_slots(int p, std::size_t buf_bytes, std::byte fill) {
  if (p > kMaxProcs) throw std::invalid_argument("perfbench supports p <= 64");
  std::vector<WorkerSlot> slots(static_cast<std::size_t>(p));
  for (WorkerSlot& w : slots) w.buf.assign(std::max<std::size_t>(buf_bytes, 4096), fill);
  return slots;
}

// ---------------------------------------------------------------------------
// h-relation phases: small, large, sync.

struct PhaseShape {
  const char* name;
  std::size_t msgs;   ///< messages per worker per superstep
  std::size_t bytes;  ///< payload bytes per message
};

/// Timed work per phase or alltoallv sample. In a sample of 2 ms, one host
/// hiccup (a late wake-up, caches left cold by the operation before) weighs
/// several times what it does in 10 ms.
constexpr double kSampleUs = 10000;

/// Supersteps per sample: enough that one sample lasts about kSampleUs on
/// this transport (per-superstep medians measured on a 4-vCPU VM).
int phase_steps(const char* phase, DeliveryStrategy d) {
  const bool shm = d == DeliveryStrategy::Shm;
  const bool sock = d == DeliveryStrategy::Socket;
  double est_us = 0;
  if (std::strcmp(phase, "small") == 0) {
    est_us = sock ? 330 : shm ? 170 : 110;
  } else if (std::strcmp(phase, "large") == 0) {
    est_us = sock ? 190 : shm ? 28 : 50;
  } else {
    est_us = sock ? 11.5 : shm ? 3.6 : 24;
  }
  return std::max(8, static_cast<int>(std::lround(kSampleUs / est_us)));
}

/// alltoallv calls per sample, sized like phase_steps (one call measured at
/// about 0.6 ms on socket and 0.25 ms on shm and deferred).
int a2a_calls(DeliveryStrategy d) {
  const double est_us = d == DeliveryStrategy::Socket ? 600 : 250;
  return std::max(8, static_cast<int>(std::lround(kSampleUs / est_us)));
}

class PhaseOp final : public Op {
 public:
  PhaseOp(const Ctx& ctx, PhaseShape shape)
      : shape_(shape),
        p_(ctx.cfg.nprocs),
        steps_(phase_steps(shape.name, ctx.cfg.delivery)),
        slots_(make_slots(p_, shape.bytes, std::byte{0x5a})),
        expect_count_(static_cast<std::size_t>(p_ * p_), 0) {
    for (int s = 0; s < p_; ++s) {
      for (std::size_t i = 0; i < shape_.msgs; ++i) {
        expect_count_[static_cast<std::size_t>(s * p_ + dest(s, i))] += 1;
      }
    }
    if (ctx.corrupt) expect_count_[1] += 1;  // source 0 -> dest 1
  }

  [[nodiscard]] std::string metric() const override {
    return std::strcmp(shape_.name, "sync") == 0
               ? "sync_us"
               : std::string("hrel_") + shape_.name + "_us";
  }

  void run(Runtime& rt, Ctx& ctx) override {
    std::atomic<int> bad{0};
    double per_ss_us = 0;
    const bool tracing = ctx.rec.tracing;
    const std::string name = std::string("phase.") + shape_.name;
    Scope op(ctx.rec, name, kCallerTrack, ctx.round_span);
    std::uint32_t run_id = 0;
    auto body = [&](Worker& w) {
      const int me = w.pid();
      const int p = w.nprocs();
      WorkerSlot& slot = slots_[static_cast<std::size_t>(me)];
      std::byte* buf = slot.buf.data();
      std::uint64_t* got = slot.got.data();
      WorkerSpans& sp = slot.spans;
      w.sync();  // align the workers; the batch starts at a boundary
      double t0 = 0;
      for (int k = -kWarmSteps; k < steps_; ++k) {
        if (k == 0) t0 = now_us();
        const double ts = now_us();
        for (std::size_t i = 0; i < shape_.msgs; ++i) {
          const std::uint32_t hdr[2] = {static_cast<std::uint32_t>(me),
                                        static_cast<std::uint32_t>(k)};
          std::memcpy(buf, hdr, sizeof(hdr));
          w.send_bytes(dest(me, i), buf, shape_.bytes);
        }
        const double tb = now_us();
        w.sync();
        const double tc = now_us();
        std::fill(got, got + 2 * p, 0);
        while (const Message* m = w.get_message()) {
          std::uint32_t hdr[2];
          std::memcpy(hdr, m->payload.data(), sizeof(hdr));
          if (hdr[0] != m->source || hdr[1] != static_cast<std::uint32_t>(k)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
          got[m->source] += 1;
          got[p + m->source] += m->size();
        }
        const double td = now_us();
        for (int s = 0; s < p; ++s) {
          const std::uint64_t want = expect_count_[static_cast<std::size_t>(s * p + me)];
          if (got[s] != want || got[p + s] != want * shape_.bytes) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (tracing && k >= 0 && k < kTracedSteps) {
          sp.entries.push_back({"xchg.stage", ts, tb, double(k)});
          sp.entries.push_back({"xchg.sync", tb, tc, double(k)});
          sp.entries.push_back({"xchg.drain", tc, td, double(k)});
        }
      }
      const double t1 = now_us();
      if (me == 0) per_ss_us = (t1 - t0) / steps_;
    };
    ctx.rec.attempt(metric());
    traced_run(rt, ctx, "run", op.id(), body, nullptr, &run_id);
    if (tracing) {
      for (int w = 0; w < p_; ++w) {
        if (ctx.process_mode && w != ctx.rank) continue;
        slots_[static_cast<std::size_t>(w)].spans.flush(ctx.rec, w, run_id);
      }
    }
    if (bad.load() != 0) {
      ctx.rec.fail(std::string("phase ") + shape_.name +
                   ": delivered count, bytes or header mismatch");
      return;
    }
    op.arg("steps", steps_);
    if (ctx.rec.round >= 0) ctx.rec.sample(metric(), per_ss_us);
  }

 private:
  [[nodiscard]] int dest(int src, std::size_t i) const {
    if (p_ == 1) return 0;
    return (src + 1 + static_cast<int>(i % static_cast<std::size_t>(p_ - 1))) % p_;
  }

  PhaseShape shape_;
  int p_;
  int steps_;
  std::vector<WorkerSlot> slots_;
  std::vector<std::uint64_t> expect_count_;
};

// ---------------------------------------------------------------------------
// alltoallv, Auto schedule, 2^17 u64 per rank.

class A2aOp final : public Op {
 public:
  static constexpr std::size_t kPerRank = std::size_t{1} << 17;

  A2aOp(const Ctx& ctx, bool onehot)
      : onehot_(onehot),
        p_(ctx.cfg.nprocs),
        calls_(a2a_calls(ctx.cfg.delivery)),
        base_(mix(ctx.seed * 31 + onehot)) {
    if (ctx.corrupt) base_corrupt_ = 1;
  }

  /// The selector's own estimate for this byte matrix: what it would pay
  /// for each schedule under the default g/L it uses on this transport.
  [[nodiscard]] gbsp::ScheduleChoice estimate(const Ctx& ctx) const {
    const auto sp = static_cast<std::size_t>(p_);
    std::vector<std::vector<std::uint64_t>> bytes(sp, std::vector<std::uint64_t>(sp, 0));
    for (int s = 0; s < p_; ++s) {
      for (int d = 0; d < p_; ++d) {
        if (d != s) bytes[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)] = count(s, d) * 8;
      }
    }
    return gbsp::evaluate_alltoallv_schedule(
        bytes, ctx.cfg.delivery == DeliveryStrategy::Socket,
        gbsp::default_collective_g_us(ctx.cfg.delivery, p_),
        gbsp::default_collective_l_us(ctx.cfg.delivery, p_), kPacket);
  }

  [[nodiscard]] std::string metric() const override {
    return onehot_ ? "a2a_onehot_ms" : "a2a_uniform_ms";
  }

  void run(Runtime& rt, Ctx& ctx) override {
    std::atomic<int> bad{0};
    double per_call_us = 0;
    double supersteps = 0;
    const bool tracing = ctx.rec.tracing;
    Scope op(ctx.rec, std::string("a2a.") + (onehot_ ? "onehot" : "uniform"),
             kCallerTrack, ctx.round_span);
    std::vector<WorkerSlot> slots(static_cast<std::size_t>(p_));
    auto body = [&](Worker& w) {
      const int me = w.pid();
      double acc = 0;
      std::uint64_t steps = 0;
      for (int c = -1; c < calls_; ++c) {  // call -1 warms up, untimed
        std::vector<std::vector<std::uint64_t>> out(static_cast<std::size_t>(p_));
        for (int d = 0; d < p_; ++d) {
          auto& v = out[static_cast<std::size_t>(d)];
          v.resize(count(me, d));
          const std::uint64_t b = value_base(me, d, c);
          for (std::size_t i = 0; i < v.size(); ++i) v[i] = b + i;
        }
        w.sync();
        const std::uint64_t s0 = w.superstep();
        const double t0 = now_us();
        auto in = gbsp::alltoallv(w, std::move(out));
        const double t1 = now_us();
        const std::uint64_t s1 = w.superstep();
        if (c >= 0) {
          acc += t1 - t0;
          steps += s1 - s0;
          if (tracing) {
            slots[static_cast<std::size_t>(me)].spans.entries.push_back(
                {"a2a.call", t0, t1, double(s1 - s0)});
          }
        }
        if (in.size() != static_cast<std::size_t>(p_)) {
          bad.fetch_add(1);
          continue;
        }
        for (int s = 0; s < p_; ++s) {
          const auto& v = in[static_cast<std::size_t>(s)];
          const std::uint64_t b = value_base(s, me, c) + base_corrupt_;
          if (v.size() != count(s, me)) {
            bad.fetch_add(1);
            continue;
          }
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (v[i] != b + i) {
              bad.fetch_add(1);
              break;
            }
          }
        }
      }
      if (me == 0) {
        per_call_us = acc / calls_;
        supersteps = static_cast<double>(steps) / calls_;
      }
    };
    ctx.rec.attempt(metric());
    std::uint32_t run_id = 0;
    traced_run(rt, ctx, "run", op.id(), body, nullptr, &run_id);
    if (tracing) {
      for (int w = 0; w < p_; ++w) {
        if (ctx.process_mode && w != ctx.rank) continue;
        slots[static_cast<std::size_t>(w)].spans.flush(ctx.rec, w, run_id);
      }
      // Selector view: the observed schedule is read from the supersteps
      // one call takes (1 counts superstep + 1 direct or 2 two-phase).
      const bool two_phase = supersteps > 2.5;
      const gbsp::ScheduleChoice c = estimate(ctx);
      const double est = two_phase ? c.two_phase_us : c.direct_us;
      op.arg("supersteps", supersteps);
      op.arg("schedule", two_phase ? 3.0 : 1.0);
      op.arg("meas_us", per_call_us);
      op.arg("est_us", est);
    }
    if (bad.load() != 0) {
      ctx.rec.fail(std::string("alltoallv ") + (onehot_ ? "onehot" : "uniform") +
                   ": block size or contents mismatch");
      return;
    }
    if (ctx.rec.round >= 0) ctx.rec.sample(metric(), per_call_us / 1e3);
  }

 private:
  [[nodiscard]] std::size_t count(int src, int dst) const {
    if (onehot_) return dst == (3 * src + 1) % p_ ? kPerRank : 0;
    return kPerRank / static_cast<std::size_t>(p_);
  }
  [[nodiscard]] std::uint64_t value_base(int src, int dst, int call) const {
    return mix(base_ ^ (std::uint64_t(src) << 40) ^ (std::uint64_t(dst) << 24) ^
               std::uint64_t(call));
  }

  bool onehot_;
  int p_;
  int calls_;
  std::uint64_t base_;
  std::uint64_t base_corrupt_ = 0;
};

// ---------------------------------------------------------------------------
// Application skeleton replay: the recorded communication matrix of one app
// run, sent with no local compute: the same packets per pair and superstep,
// in the same number of messages.

class SkeletonOp final : public Op {
 public:
  /// `sks`: the skeletons of one application, one per input instance.
  SkeletonOp(const Ctx& ctx, std::vector<Skeleton> sks)
      : sks_(std::move(sks)), p_(ctx.cfg.nprocs) {
    std::uint64_t max_pk = 1;
    double est_us = 0;
    // Per-transport boundary cost, per-message cost and copy rate: a rough
    // model that sizes the replays per sample to about 5 ms.
    const DeliveryStrategy d = ctx.cfg.delivery;
    const double l_us = d == DeliveryStrategy::Shm ? 3.5 : d == DeliveryStrategy::Socket ? 11 : 20;
    const double msg_us = d == DeliveryStrategy::Socket ? 0.18 : 0.075;
    const double bytes_per_us = d == DeliveryStrategy::Shm ? 10000 : d == DeliveryStrategy::Socket ? 3000 : 5000;
    for (Skeleton& sk : sks_) {
      if (sk.p != p_ || p_ > kMaxProcs) {
        throw std::invalid_argument("skeleton recorded at another p, or p > 64");
      }
      for (std::size_t s = 0; s < sk.packets.size(); ++s) {
        for (const std::uint64_t pk : sk.packets[s]) max_pk = std::max(max_pk, pk);
        const double h = static_cast<double>(h_of(sk.packets[s]));
        h_ += h / static_cast<double>(sks_.size());
        est_us += h * kPacket / bytes_per_us +
                  static_cast<double>(h_of(sk.messages[s])) * msg_us;
      }
      seq_ms_ += sk.seq_ms / static_cast<double>(sks_.size());
      est_us += static_cast<double>(sk.packets.size()) * l_us;
      expect_.push_back(sk.packets);
    }
    if (ctx.corrupt) {
      for (auto& e : expect_) {
        if (!e.empty()) e[0][1] += 1;
      }
    }
    buf_.assign(max_pk * kPacket, std::byte{0x3c});
    reps_ = std::clamp(static_cast<int>(std::ceil(5000.0 / std::max(est_us, 1.0))), 1, 512);
  }

  [[nodiscard]] std::string metric() const override { return sks_.front().app + "_ms"; }

  void run(Runtime& rt, Ctx& ctx) override {
    std::atomic<int> bad{0};
    double per_replay_us = 0;
    const int replays = reps_ * static_cast<int>(sks_.size());
    Scope op(ctx.rec, "app." + sks_.front().app, kCallerTrack, ctx.round_span);
    auto body = [&](Worker& w) {
      const int me = w.pid();
      const int p = w.nprocs();
      std::array<std::uint64_t, 2 * kMaxProcs> got{};  // on this worker's stack
      w.sync();
      const double t0 = now_us();
      for (int r = 0; r < reps_; ++r) {
        for (std::size_t k = 0; k < sks_.size(); ++k) {
          const auto& packets = sks_[k].packets;
          const auto& messages = sks_[k].messages;
          for (std::size_t s = 0; s + 1 < packets.size(); ++s) {
            for (int d = 0; d < p; ++d) {
              const auto cell = static_cast<std::size_t>(me * p + d);
              const std::uint64_t pk = packets[s][cell];
              const std::uint64_t msgs = messages[s][cell];
              // pk packets in msgs messages, as even as possible.
              for (std::uint64_t j = 0; j < msgs; ++j) {
                const std::uint64_t n = pk / msgs + (j < pk % msgs ? 1 : 0);
                w.send_bytes(d, buf_.data(), n * kPacket);
              }
            }
            w.sync();
            std::fill(got.begin(), got.end(), 0);
            while (const Message* m = w.get_message()) {
              got[m->source] += 1;
              got[static_cast<std::size_t>(p) + m->source] += m->size();
            }
            const auto& want = expect_[k][s];
            for (int src = 0; src < p; ++src) {
              const auto cell = static_cast<std::size_t>(src * p + me);
              if (got[static_cast<std::size_t>(src)] != messages[s][cell] ||
                  got[static_cast<std::size_t>(p + src)] != want[cell] * kPacket) {
                bad.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        }
      }
      const double t1 = now_us();
      if (me == 0) per_replay_us = (t1 - t0) / replays;
    };
    ctx.rec.attempt(metric());
    traced_run(rt, ctx, "run", op.id(), body);
    if (ctx.rec.tracing) {
      op.arg("reps", replays);
      op.arg("H_app", h_);
      op.arg("seq_ms", seq_ms_);
      op.arg("per_rep_us", per_replay_us);
    }
    if (bad.load() != 0) {
      ctx.rec.fail(sks_.front().app + " skeleton: delivered count or bytes mismatch");
      return;
    }
    if (ctx.rec.round >= 0) ctx.rec.sample(metric(), per_replay_us / 1e3);
  }

 private:
  /// h of one superstep: max over ranks of max(out, in), in packets or
  /// messages.
  [[nodiscard]] std::uint64_t h_of(const std::vector<std::uint64_t>& step) const {
    std::uint64_t h = 0;
    for (int r = 0; r < p_; ++r) {
      std::uint64_t out = 0, in = 0;
      for (int o = 0; o < p_; ++o) {
        out += step[static_cast<std::size_t>(r * p_ + o)];
        in += step[static_cast<std::size_t>(o * p_ + r)];
      }
      h = std::max({h, out, in});
    }
    return h;
  }

  std::vector<Skeleton> sks_;
  int p_;
  int reps_ = 1;
  double h_ = 0;
  double seq_ms_ = 0;
  std::vector<std::byte> buf_;
  std::vector<std::vector<std::vector<std::uint64_t>>> expect_;
};

// ---------------------------------------------------------------------------
// Set-up: a fresh Runtime's constructor plus its first empty superstep.

class SetupOp final : public Op {
 public:
  [[nodiscard]] std::string metric() const override { return "setup_s"; }
  void run(Runtime& rt, Ctx& ctx) override {
    const gbsp::Config cfg = fresh_config(ctx);
    if (ctx.process_mode) {
      // Start every rank's bootstrap together: the first boundary absorbs
      // the skew of the last round, the second finds every rank awake.
      rt.run([](Worker& w) {
        w.sync();
        w.sync();
      });
    }
    ctx.rec.attempt(metric());
    const double t0 = now_us();
    double t1 = 0;
    double t2 = 0;
    {
      Runtime fresh(cfg);
      t1 = now_us();
      fresh.run([](Worker& w) { w.sync(); });
      t2 = now_us();
      if (ctx.process_mode) {
        // Tear down only after every rank has left fresh's last exchange: a
        // rank closing its endpoints while a peer still reads that exchange
        // makes the peer report peer death.
        rt.run([](Worker& w) { w.sync(); });
      }
    }
    ctx.rec.span("setup", kCallerTrack, ctx.round_span, t0, t2,
                 {{"ctor_us", t1 - t0}, {"first_ss_us", t2 - t1}});
    if (ctx.rec.round >= 0) ctx.rec.sample(metric(), (t2 - t0) / 1e6);
  }
};

// ---------------------------------------------------------------------------
// Traced-only layer probes.

/// runtime.spawn_us: empty Runtime::run calls; runtime.sync_us: empty
/// supersteps.
class RuntimeProbeOp final : public Op {
 public:
  [[nodiscard]] std::string metric() const override { return ""; }
  [[nodiscard]] bool traced_only() const override { return true; }
  void run(Runtime& rt, Ctx& ctx) override {
    constexpr int kRuns = 20;
    constexpr int kSyncs = 200;
    const double t0 = now_us();
    for (int i = 0; i < kRuns; ++i) rt.run([](Worker&) {});
    const double t1 = now_us();
    double sync_us = 0;
    rt.run([&](Worker& w) {
      w.sync();
      const double a = now_us();
      for (int i = 0; i < kSyncs; ++i) w.sync();
      if (w.pid() == 0) sync_us = (now_us() - a) / kSyncs;
    });
    const double t2 = now_us();
    if (ctx.rank == 0) {
      ctx.rec.span("runtime.spawn", kCallerTrack, ctx.round_span, t0, t1,
                   {{"n", kRuns}});
      ctx.rec.span("runtime.sync", kCallerTrack, ctx.round_span, t1, t2,
                   {{"sync_us", sync_us}});
    }
  }
};

/// cost.g_us / cost.L_us: the paper's Fig 2.1 probe on the workload's own
/// Runtime, fitted with fit_g_L.
class CostProbeOp final : public Op {
 public:
  [[nodiscard]] std::string metric() const override { return ""; }
  [[nodiscard]] bool traced_only() const override { return true; }
  void run(Runtime& rt, Ctx& ctx) override {
    constexpr int kSteps = 40;
    std::vector<gbsp::ProbeSample> samples;
    const double t0 = now_us();
    for (const int per_peer : {1, 4, 16, 64, 256}) {
      double us = 0;
      rt.run([&](Worker& w) {
        const int p = w.nprocs();
        char pkt[kPacket] = {};
        w.sync();
        const double a = now_us();
        for (int s = 0; s < kSteps; ++s) {
          for (int d = 1; d < p; ++d) {
            for (int k = 0; k < per_peer; ++k) {
              w.send_bytes((w.pid() + d) % p, pkt, sizeof(pkt));
            }
          }
          w.sync();
          while (w.get_message() != nullptr) {
          }
        }
        if (w.pid() == 0) us = (now_us() - a) / kSteps;
      });
      samples.push_back({static_cast<std::uint64_t>(per_peer) *
                             static_cast<std::uint64_t>(ctx.cfg.nprocs - 1),
                         us});
    }
    if (ctx.rank != 0) return;  // rank 0 timed the probe
    const gbsp::MachineParams mp = gbsp::fit_g_L(samples);
    ctx.rec.set("cost.g_us", mp.g_us);
    ctx.rec.set("cost.L_us", mp.L_us);
    ctx.rec.span("cost.probe", kCallerTrack, ctx.round_span, t0, now_us(),
                 {{"g_us", mp.g_us}, {"L_us", mp.L_us}});
  }
};

/// barrier.wait_us: arrive_and_wait on a fresh CentralBlocking barrier with
/// as many threads as the workload has workers.
class BarrierProbeOp final : public Op {
 public:
  [[nodiscard]] std::string metric() const override { return ""; }
  [[nodiscard]] bool traced_only() const override { return true; }
  void run(Runtime&, Ctx& ctx) override {
    if (ctx.rank != 0) return;
    constexpr int kWaits = 2000;
    const int p = ctx.cfg.nprocs;
    std::atomic<bool> abort{false};
    auto barrier = gbsp::make_barrier(gbsp::BarrierKind::CentralBlocking, p, &abort);
    double per_wait = 0;
    const double t0 = now_us();
    {
      std::vector<std::jthread> threads;
      for (int i = 0; i < p; ++i) {
        threads.emplace_back([&, i] {
          const double a = now_us();
          for (int k = 0; k < kWaits; ++k) barrier->arrive_and_wait(i);
          if (i == 0) per_wait = (now_us() - a) / kWaits;
        });
      }
    }
    ctx.rec.span("barrier.wait", kCallerTrack, ctx.round_span, t0, now_us(),
                 {{"wait_us", per_wait}});
  }
};

}  // namespace

double mesh_builds(Runtime& rt) {
  if (auto* s = dynamic_cast<gbsp::SocketTransport*>(&rt.transport())) {
    return static_cast<double>(s->debug_socket_builds());
  }
  if (auto* s = dynamic_cast<gbsp::ShmTransport*>(&rt.transport())) {
    return static_cast<double>(s->debug_mesh_builds());
  }
  return 0.0;  // the in-memory transports build no mesh
}

gbsp::Config fresh_config(const Ctx& ctx) {
  gbsp::Config cfg = ctx.cfg;
  if (ctx.process_mode) {
    static int serial = 0;
    const std::string name = ctx.shm_base + ".s" + std::to_string(++serial);
    ::setenv("GBSP_SHM_NAME", name.c_str(), 1);
    gbsp::configure_proc_from_env(cfg);
  }
  return cfg;
}

std::vector<std::unique_ptr<Op>> make_phase_ops(Ctx& ctx) {
  std::vector<std::unique_ptr<Op>> ops;
  ops.push_back(std::make_unique<PhaseOp>(ctx, PhaseShape{"small", 2000, 16}));
  ops.push_back(std::make_unique<PhaseOp>(ctx, PhaseShape{"large", 8, 64 * 1024}));
  ops.push_back(std::make_unique<PhaseOp>(ctx, PhaseShape{"sync", 0, 0}));
  ops.push_back(std::make_unique<A2aOp>(ctx, false));
  ops.push_back(std::make_unique<A2aOp>(ctx, true));
  return ops;
}

std::vector<std::unique_ptr<Op>> make_skeleton_ops(Ctx& ctx,
                                                   std::vector<Skeleton> sks) {
  // One operation per application, in recording order, over its instances.
  std::vector<std::unique_ptr<Op>> ops;
  std::vector<Skeleton> same;
  for (std::size_t i = 0; i < sks.size(); ++i) {
    same.push_back(std::move(sks[i]));
    if (i + 1 == sks.size() || sks[i + 1].app != same.front().app) {
      ops.push_back(std::make_unique<SkeletonOp>(ctx, std::move(same)));
      same.clear();
    }
  }
  return ops;
}

std::unique_ptr<Op> make_setup_op() { return std::make_unique<SetupOp>(); }

std::vector<std::unique_ptr<Op>> make_layer_probe_ops() {
  std::vector<std::unique_ptr<Op>> ops;
  ops.push_back(std::make_unique<RuntimeProbeOp>());
  ops.push_back(std::make_unique<CostProbeOp>());
  ops.push_back(std::make_unique<BarrierProbeOp>());
  return ops;
}

void write_skeletons(const std::string& path, const std::vector<Skeleton>& sks) {
  std::ofstream f(path);
  for (const Skeleton& s : sks) {
    f << s.app << ' ' << s.p << ' ' << s.packets.size() << ' ' << s.seq_ms << '\n';
    for (const auto* matrix : {&s.packets, &s.messages}) {
      for (const auto& step : *matrix) {
        for (std::size_t i = 0; i < step.size(); ++i) f << (i ? " " : "") << step[i];
        f << '\n';
      }
    }
  }
  if (!f) throw std::runtime_error("perfbench: cannot write " + path);
}

std::vector<Skeleton> read_skeletons(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("perfbench: cannot read " + path);
  std::vector<Skeleton> out;
  Skeleton s;
  std::size_t n = 0;
  while (f >> s.app >> s.p >> n >> s.seq_ms) {
    s.packets.assign(n, std::vector<std::uint64_t>(static_cast<std::size_t>(s.p * s.p)));
    s.messages = s.packets;
    for (auto* matrix : {&s.packets, &s.messages}) {
      for (auto& step : *matrix) {
        for (auto& v : step) f >> v;
      }
    }
    if (!f) throw std::runtime_error("perfbench: truncated skeleton " + path);
    out.push_back(s);
  }
  return out;
}

}  // namespace pb
