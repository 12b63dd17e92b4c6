// Measurement plumbing shared by every workload: the steady clock, raw
// samples per end-to-end metric, per-layer values, the span recorder of the
// traced run, the heap-allocation counter and the process resource readers.
//
// Everything is kept in memory and written once, at the end, as one JSON
// document per process (run.py merges the ranks and derives the tables).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// Microseconds on the steady clock (CLOCK_MONOTONIC on Linux, shared by
/// every process of the host).
double now_us();

/// Heap allocations counted by the benchmark's global operator new while
/// counting is on. Counting is switched on only in traced rounds, so untraced
/// rounds pay one relaxed load per allocation.
void set_alloc_counting(bool on);
std::uint64_t alloc_count();

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();
/// User + system CPU time of this process (all threads) in microseconds.
double process_cpu_us();

/// One span of the traced run: a call the benchmark made into a layer.
/// `track` is the worker pid, or kCallerTrack for the calling thread.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = no parent
  int track = 0;
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  std::vector<std::pair<std::string, double>> args;
};

inline constexpr int kCallerTrack = -1;

class Recorder {
 public:
  /// Spans are recorded only while tracing is true (the traced rounds).
  bool tracing = false;
  /// Round index the samples below belong to; run.py splits the traced
  /// run's samples into traced and untraced rounds with it.
  int round = -1;

  void sample(const std::string& metric, double value);
  void set(const std::string& key, double value);

  /// Opens a span and returns its id (0 when not tracing). Thread-safe.
  std::uint32_t open(const std::string& name, int track, std::uint32_t parent);
  /// Closes span `id`, attaching `args`. No-op for id 0.
  void close(std::uint32_t id,
             std::vector<std::pair<std::string, double>> args = {});
  /// Records an already-measured span in one call (id 0 when not tracing).
  std::uint32_t span(const std::string& name, int track, std::uint32_t parent,
                     double t0, double t1,
                     std::vector<std::pair<std::string, double>> args = {});

  /// Starts one checked operation of `op` (its metric name). It is known by
  /// (round, op, k), k counting op's attempts in the round, so the ranks of
  /// a process-mode run name the same operation alike and run.py can merge
  /// their failures.
  void attempt(const std::string& op);
  /// Marks the operation started last as failed.
  void fail(const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const;

  /// Writes the whole record as one JSON document.
  void write(const std::string& path, int rank) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<std::pair<int, double>>> samples_;
  std::map<std::string, double> values_;
  std::vector<Span> spans_;
  struct Attempt {
    int round = 0;
    std::string op;
    int k = 0;
    bool operator==(const Attempt&) const = default;
  };
  std::map<std::string, std::uint64_t> attempts_;  ///< per op
  std::map<std::string, int> in_round_;             ///< per op, this round
  int attempts_round_ = 0;
  Attempt current_;
  std::vector<Attempt> failures_;
  std::vector<std::string> errors_;
};

/// RAII span on the caller or a worker track.
class Scope {
 public:
  Scope(Recorder& rec, const std::string& name, int track,
        std::uint32_t parent)
      : rec_(rec), id_(rec.open(name, track, parent)) {}
  ~Scope() { rec_.close(id_, std::move(args_)); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }
  void arg(const std::string& k, double v) { args_.emplace_back(k, v); }

 private:
  Recorder& rec_;
  std::uint32_t id_;
  std::vector<std::pair<std::string, double>> args_;
};

}  // namespace pb
