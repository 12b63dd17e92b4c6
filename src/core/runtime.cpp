#include "core/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "core/transport.hpp"
#include "util/timer.hpp"

namespace gbsp {

namespace detail {

Worker*& current_worker_slot() {
  thread_local Worker* slot = nullptr;
  return slot;
}

}  // namespace detail

int Worker::nprocs() const { return rt_->config().nprocs; }
const Config& Worker::config() const { return rt_->config(); }

void Worker::require_outside_window(const char* what) const {
  if (state_->overlap_active) {
    throw std::logic_error(
        "gbsp: worker " + std::to_string(state_->pid) + " called " + what +
        " inside a split-phase window (between sync_begin() and sync_end())");
  }
}

void Worker::send_bytes(int dest, const void* data, std::size_t n) {
  std::byte* slot = stage(dest, n, "send()");
  if (n != 0) std::memcpy(slot, data, n);
}

std::byte* Worker::send_reserve(int dest, std::size_t n) {
  return stage(dest, n, "send_reserve()");
}

std::byte* Worker::stage(int dest, std::size_t n, const char* what) {
  detail::WorkerState& st = *state_;
  const Config& cfg = rt_->config();
  require_outside_window(what);
  if (dest < 0 || dest >= cfg.nprocs) {
    throw std::out_of_range("gbsp: send to invalid processor " +
                            std::to_string(dest));
  }
  std::byte* slot = rt_->transport_->stage_reserve(st, dest, n);

  const std::uint64_t pkts = packets_for_bytes(n, cfg.packet_unit_bytes);
  st.sent_packets += pkts;
  st.sent_bytes += n;
  st.sent_messages += 1;
  if (cfg.collect_comm_matrix) {
    st.sent_to[static_cast<std::size_t>(dest)] += pkts;
  }
  return slot;
}

void Worker::sync() { rt_->do_sync(*state_); }

void Worker::sync_begin() { rt_->do_sync_begin(*state_); }

bool Worker::sync_progress() { return rt_->do_sync_progress(*state_); }

void Worker::sync_end() { rt_->do_sync_end(*state_); }

const Message* Worker::get_message() {
  detail::WorkerState& st = *state_;
  require_outside_window("get_message()");
  if (st.inbox_cursor >= st.inbox.size()) return nullptr;
  return &st.inbox[st.inbox_cursor++];
}

bool Worker::resumed() const { return rt_->resume_step_ >= 0; }

std::uint64_t Worker::resume_superstep() const {
  return rt_->resume_step_ >= 0
             ? static_cast<std::uint64_t>(rt_->resume_step_)
             : 0;
}

void Worker::register_checkpoint_region(void* base, std::size_t bytes) {
  detail::WorkerState& st = *state_;
  const std::size_t index = st.ckpt_regions.size();
  st.ckpt_regions.push_back(
      {static_cast<std::byte*>(base), bytes});
  if (rt_->resume_step_ >= 0) {
    rt_->recovery_.restore_region(
        st.pid, static_cast<std::uint64_t>(rt_->resume_step_), index,
        static_cast<std::byte*>(base), bytes);
  }
}

void Worker::set_checkpoint_state(
    std::function<void(std::vector<std::byte>&)> save,
    std::function<void(const std::byte*, std::size_t)> restore) {
  detail::WorkerState& st = *state_;
  st.ckpt_save = std::move(save);
  st.ckpt_restore = std::move(restore);
  if (rt_->resume_step_ >= 0 && st.ckpt_restore) {
    const std::vector<std::byte>& blob = rt_->recovery_.user_state(
        st.pid, static_cast<std::uint64_t>(rt_->resume_step_));
    st.ckpt_restore(blob.data(), blob.size());
  }
}

// ------------------------------------------------------------------- Runtime

Runtime::Runtime(Config cfg) : cfg_(cfg) {
  validate_config(cfg_);
  transport_ = make_transport(cfg_, pool_, &abort_);
}

Runtime::~Runtime() = default;

void Runtime::begin_work_slice(detail::WorkerState& st) {
  st.work_start_ns = ThreadCpuTimer::now_ns();
}

void Runtime::record_step(detail::WorkerState& st) {
  WorkerStepRecord r;
  r.work_us =
      static_cast<double>(ThreadCpuTimer::now_ns() - st.work_start_ns) * 1e-3;
  r.recv_packets = st.pending_recv_packets;
  st.pending_recv_packets = 0;
  r.recv_messages = st.pending_recv_messages;
  st.pending_recv_messages = 0;
  // Wire bytes accrue during the exchange that opened this superstep, so
  // they are charged — like recv_packets — to the superstep being recorded.
  r.wire_bytes = st.wire_bytes;
  st.wire_bytes = 0;
  r.wire_syscalls = st.wire_syscalls;
  st.wire_syscalls = 0;
  r.wire_zc_bytes = st.wire_zc_bytes;
  st.wire_zc_bytes = 0;
  r.sent_packets = st.sent_packets;
  r.sent_bytes = st.sent_bytes;
  r.sent_messages = st.sent_messages;
  if (cfg_.collect_comm_matrix) {
    r.sent_to_packets = st.sent_to;
    std::fill(st.sent_to.begin(), st.sent_to.end(), 0);
  }
  // Fault/recovery accounting: faults injected during the exchange that
  // opened this superstep, plus the cost of the checkpoint taken at its top
  // (or of the restore that recreated it).
  r.injected_faults = st.injected_faults;
  st.injected_faults = 0;
  r.checkpoint_bytes = st.checkpoint_bytes;
  st.checkpoint_bytes = 0;
  r.checkpoint_us = st.checkpoint_us;
  st.checkpoint_us = 0.0;
  r.restore_us = st.restore_us;
  st.restore_us = 0.0;
  // Split-phase window that opened this superstep (set by the previous
  // do_sync_end): charged like the wire traffic it overlapped.
  r.overlap_us = st.overlap_us;
  st.overlap_us = 0.0;
  r.overlap_wire_bytes = st.overlap_wire_bytes;
  st.overlap_wire_bytes = 0;
  st.trace.push_back(std::move(r));
  st.sent_packets = 0;
  st.sent_bytes = 0;
  st.sent_messages = 0;
}

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Runtime::begin_boundary(detail::WorkerState& st) {
  if (cfg_.scheduling == Scheduling::Serialized) {
    // One thread at a time: the exchange runs inside the scheduler at
    // end_boundary; here the worker only seals its sends.
    transport_->flush(st);
  } else {
    transport_->begin_exchange(st);
  }
}

void Runtime::end_boundary(detail::WorkerState& st) {
  if (cfg_.scheduling == Scheduling::Serialized) {
    scheduler_->yield_at_sync(st.pid);  // transport exchange ran inside
  } else if (transport_->needs_boundary_barriers()) {
    // Every worker sealed its sends at begin_boundary, so once all arrive
    // here the senders are quiescent.
    barrier_a_->arrive_and_wait(st.pid);
    transport_->finish_exchange(st);
    barrier_b_->arrive_and_wait(st.pid);
  } else {
    // Self-synchronising transport: finish_exchange blocks until every
    // peer's data for this boundary has arrived — the exchange is the
    // barrier.
    transport_->finish_exchange(st);
  }
  st.superstep += 1;
  progress_.fetch_add(1, std::memory_order_relaxed);
  // The boundary just crossed is a consistent cut: every message sent before
  // it has been delivered, none sent after it exists yet. Snapshot here —
  // at the top of the new superstep — so a restore replays from exactly
  // this point. A fault inside a split-phase window unwound before reaching
  // here, so a checkpoint is only ever taken on a fully reconciled boundary.
  if (cfg_.checkpoint_every != 0 &&
      st.superstep % cfg_.checkpoint_every == 0) {
    recovery_.checkpoint(st);
  }
  begin_work_slice(st);
}

void Runtime::do_sync(detail::WorkerState& st) {
  if (st.overlap_active) {
    throw std::logic_error(
        "gbsp: worker " + std::to_string(st.pid) +
        " called sync() inside a split-phase window; use sync_end()");
  }
  if (abort_.load(std::memory_order_acquire)) throw BspAborted{};
  // A rigid boundary is a split pair with an empty window. Closing the
  // superstep first keeps the exchange out of its work_us and charges the
  // boundary's wire traffic to the superstep it opens.
  record_step(st);
  begin_boundary(st);
  end_boundary(st);
}

void Runtime::do_sync_begin(detail::WorkerState& st) {
  if (st.overlap_active) {
    throw std::logic_error(
        "gbsp: worker " + std::to_string(st.pid) +
        " called sync_begin() twice without an intervening sync_end()");
  }
  if (abort_.load(std::memory_order_acquire)) throw BspAborted{};
  // Snapshot the wire counters before the transport moves anything, so
  // sync_end can re-charge the window's traffic to the superstep the
  // boundary opens (the rigid path's charging rule).
  st.overlap_wire_base = st.wire_bytes;
  st.overlap_syscall_base = st.wire_syscalls;
  // Under Serialized scheduling the window still measures the caller's
  // overlappable compute, so Serialized traces stay comparable.
  begin_boundary(st);
  st.overlap_active = true;
  st.overlap_start_ns = steady_now_ns();
}

bool Runtime::do_sync_progress(detail::WorkerState& st) {
  if (!st.overlap_active) return false;
  if (abort_.load(std::memory_order_acquire)) throw BspAborted{};
  if (cfg_.scheduling == Scheduling::Serialized) return false;
  return transport_->progress(st);
}

void Runtime::do_sync_end(detail::WorkerState& st) {
  if (!st.overlap_active) {
    throw std::logic_error("gbsp: worker " + std::to_string(st.pid) +
                           " called sync_end() without a matching "
                           "sync_begin()");
  }
  if (abort_.load(std::memory_order_acquire)) throw BspAborted{};
  const double window_us =
      static_cast<double>(steady_now_ns() - st.overlap_start_ns) * 1e-3;
  // Wire traffic that moved during the window belongs — like every exchange
  // counter — to the superstep this boundary opens. Park it below the
  // sync_begin snapshot while record_step closes the *ending* superstep,
  // then restore it for the next record.
  const std::uint64_t window_wire = st.wire_bytes - st.overlap_wire_base;
  const std::uint64_t window_calls =
      st.wire_syscalls - st.overlap_syscall_base;
  st.wire_bytes = st.overlap_wire_base;
  st.wire_syscalls = st.overlap_syscall_base;
  record_step(st);  // includes the window's compute in this step's work_us
  st.wire_bytes = window_wire;
  st.wire_syscalls = window_calls;
  st.overlap_us = window_us;
  st.overlap_wire_bytes = window_wire;
  st.overlap_active = false;
  end_boundary(st);
}

void Runtime::finalize_worker(detail::WorkerState& st) {
  if (st.overlap_active) {
    throw std::logic_error(
        "gbsp: worker " + std::to_string(st.pid) +
        " returned from the SPMD function inside a split-phase window "
        "(missing sync_end())");
  }
  if (st.sent_messages != 0 || transport_->has_unflushed(st)) {
    throw std::logic_error(
        "gbsp: worker " + std::to_string(st.pid) +
        " sent messages after its final sync(); they can never be delivered");
  }
  // The tail slice after the last sync() is the program's final superstep.
  record_step(st);
}

void Runtime::report_error(std::exception_ptr e, int pid) {
  // Class 0: program (user) errors — the root cause when a functor throws.
  // Class 1: transport errors — often *secondary* (a peer unwinding because
  // worker 0 threw looks, to worker 1, like a dead peer). A user error must
  // therefore outrank any transport error regardless of pid; within a class
  // the lowest pid wins, so concurrent failures diagnose deterministically.
  int cls = 0;
  try {
    std::rethrow_exception(e);
  } catch (const BspTransportError&) {
    cls = 1;
  } catch (...) {
  }
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (first_error_ == nullptr || cls < first_error_class_ ||
        (cls == first_error_class_ && pid < first_error_pid_)) {
      first_error_ = e;
      first_error_pid_ = pid;
      first_error_class_ = cls;
    }
  }
  abort_.store(true, std::memory_order_release);
  if (scheduler_) scheduler_->abort();
}

void Runtime::watchdog_main() {
  using clock = std::chrono::steady_clock;
  const auto deadline = std::chrono::milliseconds(cfg_.superstep_deadline_ms);
  // Poll often enough to detect a wedge promptly without burning a core.
  const auto tick = std::max<std::chrono::milliseconds>(
      std::chrono::milliseconds(1),
      std::min(deadline / 4, std::chrono::milliseconds(100)));
  std::uint64_t last = progress_.load(std::memory_order_relaxed);
  clock::time_point last_change = clock::now();
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(tick);
    const std::uint64_t cur = progress_.load(std::memory_order_relaxed);
    if (cur != last) {
      last = cur;
      last_change = clock::now();
      continue;
    }
    if (abort_.load(std::memory_order_acquire)) continue;  // already unwinding
    if (clock::now() - last_change < deadline) continue;
    // Report as a transport error (it is recoverable by retry) from a pid
    // past every real worker, so any concrete per-worker diagnosis wins the
    // tie-break over this generic one.
    report_error(
        std::make_exception_ptr(BspTransportError(
            "watchdog: no worker completed a superstep boundary within "
            "superstep_deadline_ms=" +
                std::to_string(cfg_.superstep_deadline_ms) + "ms",
            /*rank=*/-1, /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
            /*err=*/0, /*bytes_moved=*/0)),
        cfg_.nprocs);
    last_change = clock::now();  // rate-limit repeat reports while unwinding
  }
}

void Runtime::worker_main(int local, const std::function<void(Worker&)>& fn) {
  // `local` indexes states_; st.pid is the global rank (they differ only in
  // process mode, where the one local state carries Config::rank).
  detail::WorkerState& st = *states_[static_cast<std::size_t>(local)];
  Worker w(this, &st);
  detail::current_worker_slot() = &w;
  bool started = true;
  try {
    if (scheduler_) scheduler_->start(st.pid);
  } catch (const BspAborted&) {
    started = false;
  }
  if (started) {
    try {
      begin_work_slice(st);
      fn(w);
      finalize_worker(st);
    } catch (const BspAborted&) {
      // Unwound because a peer failed; nothing to report.
    } catch (...) {
      report_error(std::current_exception(), st.pid);
    }
  }
  st.finished = true;
  if (scheduler_) scheduler_->finish(st.pid);
  detail::current_worker_slot() = nullptr;
}

bool Runtime::run_attempt(const std::function<void(Worker&)>& fn) {
  const int p = cfg_.nprocs;
  // In process mode this process hosts exactly one of the p ranks; its state
  // still carries per-destination counters sized to the full global run.
  const int nl = process_mode() ? 1 : p;
  abort_.store(false, std::memory_order_release);
  first_error_ = nullptr;
  first_error_pid_ = -1;
  first_error_class_ = 2;

  states_.clear();
  states_.reserve(static_cast<std::size_t>(nl));
  for (int i = 0; i < nl; ++i) {
    auto st = std::make_unique<detail::WorkerState>();
    st->pid = process_mode() ? cfg_.rank : i;
    st->seq_to.assign(static_cast<std::size_t>(p), 0);
    if (cfg_.collect_comm_matrix) {
      st->sent_to.assign(static_cast<std::size_t>(p), 0);
    }
    // On a resume, rebuild the state to the checkpointed cut — superstep
    // counter, sequence numbers, trace, and inbox views — before the
    // transport or any worker thread sees it.
    if (resume_step_ >= 0) {
      recovery_.restore(*st, static_cast<std::uint64_t>(resume_step_));
    }
    states_.push_back(std::move(st));
  }
  // The transport rebuilds its per-run arenas (and, for sockets, endpoints)
  // here; destroying the previous run's arenas releases every slab into
  // pool_ for the new ones to reacquire — buffers recycle across run()
  // calls, not just across supersteps. A failed attempt marked the socket
  // wire dirty, so a retry gets a fresh mesh.
  transport_->reset_run(states_);
  barrier_a_ = make_barrier(cfg_.barrier, nl, &abort_);
  barrier_b_ = make_barrier(cfg_.barrier, nl, &abort_);
  scheduler_.reset();
  if (cfg_.scheduling == Scheduling::Serialized) {
    scheduler_ = std::make_unique<SerialScheduler>(
        p, [this] { transport_->exchange(states_); });
  }

  progress_.fetch_add(1, std::memory_order_relaxed);  // attempt start
  watchdog_stop_.store(false, std::memory_order_release);
  std::thread watchdog;
  if (cfg_.superstep_deadline_ms != 0) {
    watchdog = std::thread([this] { watchdog_main(); });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nl));
  for (int i = 0; i < nl; ++i) {
    threads.emplace_back([this, i, &fn] { worker_main(i, fn); });
  }
  for (auto& t : threads) t.join();

  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();

  return first_error_ == nullptr;
}

RunStats Runtime::run(const std::function<void(Worker&)>& fn) {
  const int p = cfg_.nprocs;
  recovery_.reset(p);
  resume_step_ = -1;
  recoveries_ = 0;
  // A fresh independent run re-arms the fault plan's counters; they then
  // persist across the retry attempts *within* this run, which is what makes
  // nth-occurrence lethal faults transient (they already fired).
  if (fault_) fault_->reset();

  WallTimer wall;
  std::size_t attempt = 0;
  while (!run_attempt(fn)) {
    // Only transport errors are recoverable by replay; a program error would
    // just recur (and masks nothing — report_error classified it primary).
    if (first_error_class_ != 1 || attempt >= cfg_.max_run_retries) {
      std::rethrow_exception(first_error_);
    }
    recoveries_ += 1;
    const std::size_t shift = std::min<std::size_t>(attempt, 20);
    std::this_thread::sleep_for(
        std::chrono::microseconds(cfg_.retry_backoff_us << shift));
    attempt += 1;
    // Resume from the newest checkpoint present on every rank; without
    // checkpointing (or before the first one completes), replay the whole
    // run — exact for deterministic programs.
    resume_step_ = cfg_.checkpoint_every != 0 ? recovery_.latest_complete()
                                              : -1;
  }

  RunStats stats;
  stats.nprocs = p;
  stats.wall_s = wall.elapsed_s();
  stats.recoveries = recoveries_;
  stats.traces.reserve(states_.size());
  for (auto& st : states_) stats.traces.push_back(std::move(st->trace));
  stats.aggregate_from_traces();
  return stats;
}

void Runtime::set_fault_plan(const FaultPlan& plan) {
  fault_ = std::make_unique<FaultInjector>(plan);
  transport_->set_fault_injector(fault_.get());
}

void Runtime::clear_fault_plan() {
  transport_->set_fault_injector(nullptr);
  fault_.reset();
}

RunStats run_bsp(int nprocs, const std::function<void(Worker&)>& fn) {
  Config cfg;
  cfg.nprocs = nprocs;
  return Runtime(cfg).run(fn);
}

}  // namespace gbsp
