// bsp_launch: the rank runner of the cross-process transports — the piece of
// the paper's Appendix B.3 PC-LAN setup that started one BSP process per
// machine. Here all p ranks land on one host; the runner's only job is
// process lifecycle and the rank environment:
//
//   bsp_launch -p 4 [--transport tcp|shm] [--host H] [--port BASE]
//              [--shm-name N] [--timeout-ms T] [--timeout S] [--] prog args...
//
// forks p children, each exec'ing `prog args...` with
//
//   GBSP_RANK=<r>  GBSP_NPROCS=<p>  GBSP_TRANSPORT=<tcp|shm>
//   GBSP_HOST=<H>  GBSP_PORT=<BASE>          (tcp)
//   GBSP_SHM_NAME=<N>                        (shm)
//   GBSP_CONNECT_TIMEOUT_MS=<T>
//
// which configure_proc_from_env (core/transport.hpp) turns into a
// Config{delivery, nprocs, tcp_*/shm_*}. Over tcp, rank r listens on BASE+r;
// over shm, the ranks rendezvous on abstract AF_UNIX sockets derived from
// the shm name (default: "launch.<launcher pid>", so concurrent launches on
// one host never collide) and fd-pass their shared segments (core/mesh.hpp).
//
// Exit policy: wait for every rank; the run's exit status is the first
// failing rank's (128 + signal for a signalled child). Once one rank fails,
// the rest are SIGTERMed — their peer connections are dead anyway, and a
// wedged survivor would otherwise hold the launcher until its own stage
// timeout fires. --timeout <seconds> arms a watchdog: a run still alive at
// the deadline has its whole rank tree SIGKILLed (each rank is its own
// process group, so grandchildren die too) and the launcher exits 124.
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s -p <nprocs> [--transport tcp|shm] [--host <ipv4>]\n"
      "       [--port <base>] [--shm-name <name>] [--timeout-ms <ms>]\n"
      "       [--timeout <seconds>] [--] <program> [args...]\n"
      "\n"
      "Runs <program> as nprocs cooperating BSP ranks: rank r is exec'd with\n"
      "GBSP_RANK=r, GBSP_NPROCS, GBSP_TRANSPORT (default tcp) and\n"
      "GBSP_CONNECT_TIMEOUT_MS (default 10000) in its environment, plus\n"
      "GBSP_HOST (default 127.0.0.1) and GBSP_PORT (default 17100; rank r\n"
      "listens on port+r) over tcp, or GBSP_SHM_NAME (default\n"
      "launch.<launcher pid>) over shm. --timeout SIGKILLs the whole rank\n"
      "tree if the run outlives the deadline (launcher exits 124).\n",
      argv0);
}

long parse_long(const char* flag, const char* raw, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(raw, &end, 10);
  if (errno != 0 || end == raw || *end != '\0' || v < lo || v > hi) {
    std::fprintf(stderr, "bsp_launch: %s expects an integer in [%ld, %ld], got \"%s\"\n",
                 flag, lo, hi, raw);
    std::exit(2);
  }
  return v;
}

double now_s() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

int main(int argc, char** argv) {
  int nprocs = 0;
  std::string transport = "tcp";
  std::string host = "127.0.0.1";
  std::string shm_name;
  long port = 17100;
  long timeout_ms = 10'000;
  long watchdog_s = 0;  // 0 = no watchdog
  int i = 1;
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-p" || a == "--nprocs") {
      if (i + 1 >= argc) { usage(argv[0]); return 2; }
      nprocs = static_cast<int>(parse_long("-p", argv[++i], 1, 1 << 12));
    } else if (a == "--transport") {
      if (i + 1 >= argc) { usage(argv[0]); return 2; }
      transport = argv[++i];
      if (transport != "tcp" && transport != "shm") {
        std::fprintf(stderr,
                     "bsp_launch: --transport expects tcp or shm, got \"%s\"\n",
                     transport.c_str());
        return 2;
      }
    } else if (a == "--host") {
      if (i + 1 >= argc) { usage(argv[0]); return 2; }
      host = argv[++i];
    } else if (a == "--port") {
      if (i + 1 >= argc) { usage(argv[0]); return 2; }
      port = parse_long("--port", argv[++i], 1, 65535);
    } else if (a == "--shm-name") {
      if (i + 1 >= argc) { usage(argv[0]); return 2; }
      shm_name = argv[++i];
    } else if (a == "--timeout-ms") {
      if (i + 1 >= argc) { usage(argv[0]); return 2; }
      timeout_ms = parse_long("--timeout-ms", argv[++i], 1, 3'600'000);
    } else if (a == "--timeout") {
      if (i + 1 >= argc) { usage(argv[0]); return 2; }
      watchdog_s = parse_long("--timeout", argv[++i], 1, 86'400);
    } else if (a == "--") {
      ++i;
      break;
    } else if (a == "-h" || a == "--help") {
      usage(argv[0]);
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "bsp_launch: unknown flag \"%s\"\n", a.c_str());
      usage(argv[0]);
      return 2;
    } else {
      break;  // first positional: the program
    }
  }
  if (nprocs == 0 || i >= argc) {
    usage(argv[0]);
    return 2;
  }
  if (transport == "tcp" && port + nprocs - 1 > 65535) {
    std::fprintf(stderr,
                 "bsp_launch: port window %ld..%ld exceeds 65535 "
                 "(lower --port or -p)\n",
                 port, port + nprocs - 1);
    return 2;
  }
  if (shm_name.empty()) {
    // Unique per launch so concurrent runs on one host never rendezvous
    // with each other's ranks.
    shm_name = "launch." + std::to_string(static_cast<long>(::getpid()));
  }

  std::vector<pid_t> kids(static_cast<std::size_t>(nprocs), -1);
  for (int r = 0; r < nprocs; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("bsp_launch: fork");
      for (int k = 0; k < r; ++k) ::kill(kids[static_cast<std::size_t>(k)], SIGTERM);
      return 1;
    }
    if (pid == 0) {
      // Child: rank r, leading its own process group so the watchdog's
      // kill(-pid) reaches anything the rank itself spawns.
      ::setpgid(0, 0);
      // setenv + execvp keeps the parent's environment (PATH, sanitizer
      // options) and overlays the rank variables.
      ::setenv("GBSP_RANK", std::to_string(r).c_str(), 1);
      ::setenv("GBSP_NPROCS", std::to_string(nprocs).c_str(), 1);
      ::setenv("GBSP_TRANSPORT", transport.c_str(), 1);
      if (transport == "shm") {
        ::setenv("GBSP_SHM_NAME", shm_name.c_str(), 1);
      } else {
        ::setenv("GBSP_HOST", host.c_str(), 1);
        ::setenv("GBSP_PORT", std::to_string(port).c_str(), 1);
      }
      ::setenv("GBSP_CONNECT_TIMEOUT_MS", std::to_string(timeout_ms).c_str(),
               1);
      ::execvp(argv[i], argv + i);
      std::fprintf(stderr, "bsp_launch: exec %s: %s\n", argv[i],
                   std::strerror(errno));
      std::_Exit(127);
    }
    ::setpgid(pid, pid);  // parent side of the race: win either way
    kids[static_cast<std::size_t>(r)] = pid;
  }

  // Reap in completion order so the FIRST failure wins the run's status and
  // triggers the teardown of the survivors. With a watchdog armed, the wait
  // is a WNOHANG poll against the deadline instead of a blocking reap.
  const double deadline = watchdog_s > 0
                              ? now_s() + static_cast<double>(watchdog_s)
                              : 0.0;
  int exit_status = 0;
  int live = nprocs;
  bool tore_down = false;
  bool timed_out = false;
  while (live > 0) {
    int wstatus = 0;
    pid_t pid;
    if (watchdog_s > 0) {
      pid = ::waitpid(-1, &wstatus, WNOHANG);
      if (pid == 0) {
        if (!timed_out && now_s() >= deadline) {
          timed_out = true;
          exit_status = 124;
          std::fprintf(stderr,
                       "bsp_launch: run exceeded --timeout %lds, killing the "
                       "rank tree\n",
                       watchdog_s);
          for (int r = 0; r < nprocs; ++r) {
            const pid_t k = kids[static_cast<std::size_t>(r)];
            if (k >= 0) ::kill(-k, SIGKILL);  // the rank's whole group
          }
        }
        ::usleep(20'000);
        continue;
      }
    } else {
      pid = ::waitpid(-1, &wstatus, 0);
    }
    if (pid < 0) {
      if (errno == EINTR) continue;
      break;
    }
    int rank = -1;
    for (int r = 0; r < nprocs; ++r) {
      if (kids[static_cast<std::size_t>(r)] == pid) { rank = r; break; }
    }
    if (rank < 0) continue;  // not one of ours (reparented grandchild)
    kids[static_cast<std::size_t>(rank)] = -1;
    --live;
    int rc = 0;
    if (WIFEXITED(wstatus)) {
      rc = WEXITSTATUS(wstatus);
    } else if (WIFSIGNALED(wstatus)) {
      rc = 128 + WTERMSIG(wstatus);
      if (!timed_out) {
        std::fprintf(stderr, "bsp_launch: rank %d killed by signal %d\n", rank,
                     WTERMSIG(wstatus));
      }
    }
    if (rc != 0 && exit_status == 0) {
      exit_status = rc;
      if (rc != 128 + SIGTERM) {
        std::fprintf(stderr, "bsp_launch: rank %d exited with status %d\n",
                     rank, rc);
      }
    }
    if (exit_status != 0 && !tore_down && !timed_out) {
      tore_down = true;
      for (int r = 0; r < nprocs; ++r) {
        if (kids[static_cast<std::size_t>(r)] >= 0) {
          ::kill(kids[static_cast<std::size_t>(r)], SIGTERM);
        }
      }
    }
  }
  return exit_status;
}
