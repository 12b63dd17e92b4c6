#include "record.hpp"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>

namespace {

std::atomic<bool> g_count_allocs{false};

// Striped by thread so counting threads do not share one cache line.
struct alignas(64) Stripe {
  std::atomic<std::uint64_t> n{0};
};
constexpr std::size_t kStripes = 32;
Stripe g_allocs[kStripes];
thread_local char t_marker;

void count_alloc() {
  if (!g_count_allocs.load(std::memory_order_relaxed)) return;
  auto x = reinterpret_cast<std::uintptr_t>(&t_marker);
  x = (x ^ (x >> 17) ^ (x >> 29)) * 0x9e3779b97f4a7c15ULL;
  g_allocs[(x >> 59) % kStripes].n.fetch_add(1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  count_alloc();
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  count_alloc();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", static_cast<unsigned>(c));
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

void json_number(std::FILE* f, double v) {
  if (std::isfinite(v)) {
    std::fprintf(f, "%.17g", v);
  } else {
    std::fputs("null", f);
  }
}

}  // namespace

// Global allocation counter (heap.allocs_per_ss). Replacing the four
// allocating forms routes every new/delete of the process through malloc.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pb {

double now_us() {
  // The steady clock's own epoch: one time base for every rank on the host,
  // so the merged trace lines the ranks up.
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_alloc_counting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_count() {
  std::uint64_t total = 0;
  for (const Stripe& s : g_allocs) total += s.n.load(std::memory_order_relaxed);
  return total;
}

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double process_cpu_us() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

void Recorder::sample(const std::string& metric, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  samples_[metric].emplace_back(round, value);
}

void Recorder::set(const std::string& key, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  values_[key] = value;
}

std::uint32_t Recorder::open(const std::string& name, int track,
                             std::uint32_t parent) {
  if (!tracing) return 0;
  const double t = now_us();
  std::lock_guard<std::mutex> lk(mu_);
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.track = track;
  s.name = name;
  s.t0 = t;
  s.t1 = t;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Recorder::close(std::uint32_t id,
                     std::vector<std::pair<std::string, double>> args) {
  if (id == 0) return;
  const double t = now_us();
  std::lock_guard<std::mutex> lk(mu_);
  Span& s = spans_.at(id - 1);
  s.t1 = t;
  s.args = std::move(args);
}

std::uint32_t Recorder::span(const std::string& name, int track,
                             std::uint32_t parent, double t0, double t1,
                             std::vector<std::pair<std::string, double>> args) {
  if (!tracing) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.track = track;
  s.name = name;
  s.t0 = t0;
  s.t1 = t1;
  s.args = std::move(args);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Recorder::attempt(const std::string& op) {
  std::lock_guard<std::mutex> lk(mu_);
  if (round != attempts_round_) {
    in_round_.clear();
    attempts_round_ = round;
  }
  current_ = {round, op, in_round_[op]++};
  ++attempts_[op];
}

std::uint64_t Recorder::attempted() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t n = 0;
  for (const auto& [op, count] : attempts_) n += count;
  return n;
}

void Recorder::fail(const std::string& what) {
  std::lock_guard<std::mutex> lk(mu_);
  if (failures_.empty() || !(failures_.back() == current_)) failures_.push_back(current_);
  if (errors_.size() < 20) errors_.push_back(what);
}

void Recorder::write(const std::string& path, int rank) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("perfbench: cannot write " + path);
  }
  std::fprintf(f, "{\"rank\": %d,\n\"attempts\": {", rank);
  bool first = true;
  for (const auto& [op, count] : attempts_) {
    std::fputs(first ? "" : ", ", f);
    first = false;
    json_string(f, op);
    std::fprintf(f, ": %llu", static_cast<unsigned long long>(count));
  }
  std::fputs("},\n\"failures\": [", f);
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    std::fprintf(f, "%s[%d, ", i ? ", " : "", failures_[i].round);
    json_string(f, failures_[i].op);
    std::fprintf(f, ", %d]", failures_[i].k);
  }
  std::fputs("],\n\"errors\": [", f);
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (i) std::fputs(", ", f);
    json_string(f, errors_[i]);
  }
  std::fputs("],\n\"samples\": {", f);
  first = true;
  for (const auto& [name, vals] : samples_) {
    std::fputs(first ? "\n" : ",\n", f);
    first = false;
    json_string(f, name);
    std::fputs(": [", f);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      std::fprintf(f, "%s[%d, ", i ? ", " : "", vals[i].first);
      json_number(f, vals[i].second);
      std::fputc(']', f);
    }
    std::fputc(']', f);
  }
  std::fputs("},\n\"values\": {", f);
  first = true;
  for (const auto& [name, v] : values_) {
    std::fputs(first ? "\n" : ",\n", f);
    first = false;
    json_string(f, name);
    std::fputs(": ", f);
    json_number(f, v);
  }
  std::fputs("},\n\"spans\": [", f);
  first = true;
  for (const Span& s : spans_) {
    std::fputs(first ? "\n" : ",\n", f);
    first = false;
    std::fprintf(f, "[%u, %u, %d, ", s.id, s.parent, s.track);
    json_string(f, s.name);
    std::fprintf(f, ", %.3f, %.3f, {", s.t0, s.t1);
    for (std::size_t i = 0; i < s.args.size(); ++i) {
      if (i) std::fputs(", ", f);
      json_string(f, s.args[i].first);
      std::fputs(": ", f);
      json_number(f, s.args[i].second);
    }
    std::fputs("}]", f);
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) {
    throw std::runtime_error("perfbench: cannot finish writing " + path);
  }
}

}  // namespace pb
