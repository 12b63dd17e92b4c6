#!/usr/bin/env python3
"""The repository benchmark: builds the library and the measuring program,
runs one workload, checks every output, and prints the metrics.

    python3 perfbench/run.py --workload apps_deferred --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload exchange_shm --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --selftest

Workloads (p = 4, library defaults except nprocs and delivery):
  apps_deferred    six checked applications plus the communication phases
                   on 4 threads over the in-memory deferred transport
  exchange_socket  communication phases and application skeleton replays on
                   4 threads over the in-process AF_UNIX socket transport
  exchange_shm     the same, as 4 OS processes under
                   `bsp_launch --transport shm` (one rank per process)

--trace 0 prints the end-to-end metrics, over the pooled samples of
PROCESSES processes run one after another for --seconds in all; --trace 1
runs one process that alternates traced and untraced rounds, writes the
merged trace (one track per worker and rank) and prints the per-layer
metrics derived from it plus the tracing overhead. The
last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit status is nonzero when any checked operation failed.

--save FILE appends this run's result as one JSON line, the input format of
perfbench/compare.py. --selftest runs every workload against deliberately
corrupted references and succeeds only if every checked operation of every
workload is reported failed.
Everything the benchmark builds or writes stays under .bench_build/ at the
root of the checkout (or $CARGO_TARGET_DIR when set).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
P = 4
# An untraced run splits --seconds over this many processes, run one after
# another, and pools their samples. Some timings settle at one level per
# process (hrel_small_us on socket near 330 or near 400 us, hrel_large_us on
# deferred anywhere from 41 to 55 us, at random), so one process reads a
# single draw of that level and several read their mix. If one process in
# four lands high, half or more of 4 processes do so in about a quarter of
# the runs, which moves the pooled median; half or more of 8 in about one in
# nine.
PROCESSES = 8

WORKLOADS = ("apps_deferred", "exchange_socket", "exchange_shm")
APPS = ("cannon", "sort", "mst", "sssp", "ocean", "nbody")

# End-to-end metrics: (name, unit). Every workload reports every one; on the
# exchange workloads the <app>_ms metrics time the application's skeleton.
END_TO_END = [(f"{a}_ms", "ms") for a in APPS] + [
    ("hrel_small_us", "us"), ("hrel_large_us", "us"), ("sync_us", "us"),
    ("a2a_uniform_ms", "ms"), ("a2a_onehot_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path


def log(msg):
    print(msg, flush=True)


def build(bdir):
    """Configures (once) and builds perfbench + bsp_launch; returns paths."""
    cdir = bdir / "cmake"
    cdir.mkdir(parents=True, exist_ok=True)
    logf = bdir / "build.log"
    with open(logf, "w") as out:
        if not (cdir / "CMakeCache.txt").exists():
            rc = subprocess.call(
                ["cmake", "-S", str(HERE), "-B", str(cdir),
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=out, stderr=out)
            if rc != 0:
                return None
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        rc = subprocess.call(
            ["cmake", "--build", str(cdir), "-j", jobs,
             "--target", "perfbench", "bsp_launch"], stdout=out, stderr=out)
        if rc != 0:
            return None
    bench = cdir / "perfbench"
    launch = cdir / "gbsp_tools" / "bsp_launch"
    if not bench.exists() or not launch.exists():
        return None
    return bench, launch


def run_checked(cmd, timeout):
    """Runs cmd; returns its exit status (None on timeout, after killing it)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        sys.stderr.write(f"perfbench: timed out: {' '.join(cmd)}\n")
        return None
    if err:
        sys.stderr.write(err)
    return proc.returncode


def run_process(bins, workload, seed, seconds, trace, corrupt, odir, skel):
    """Runs one process of the workload (on shm, one bsp_launch group of P
    ranks); returns (exit status, the ranks' records sorted by rank)."""
    bench, launch = bins
    out = odir / "record.json"
    for stale in odir.glob("record.json*"):
        stale.unlink()
    common = ["--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
    if trace:
        common.append("--trace")
    if corrupt:
        common.append("--corrupt")
    timeout = seconds + 90
    if workload == "apps_deferred":
        cmd = [str(bench), "apps"] + common
    else:
        transport = workload.split("_", 1)[1]
        cmd = [str(bench), "exchange", "--transport", transport,
               "--skeleton", str(skel)] + common
        if transport == "shm":
            # Fresh bootstrap name per process, so concurrent runs cannot
            # collide; the watchdog ends the run if a rank wedges.
            name = f"pb{os.getpid()}x{seed}x{int(time.time() * 1000) % 100000}"
            cmd = [str(launch), "-p", str(P), "--transport", "shm",
                   "--timeout", str(int(timeout)), "--shm-name", name,
                   "--"] + cmd
    rc = run_checked(cmd, timeout + 10)
    if rc is None:
        return 124, None
    records = []
    for path in sorted(odir.glob("record.json*")):
        with open(path) as f:
            records.append(json.load(f))
        path.unlink()
    records.sort(key=lambda r: r["rank"])
    if not records or records[0]["rank"] != 0:
        return rc if rc != 0 else 1, None
    return rc, records


def run_workload(bins, workload, seed, seconds, trace, corrupt, odir, processes=1):
    """Runs the workload as `processes` processes one after another, sharing
    `seconds`; returns (exit status, [ranks' records of each process])."""
    bench, _ = bins
    odir.mkdir(parents=True, exist_ok=True)
    skel = None
    if workload != "apps_deferred":
        skel = odir / "skeleton.txt"
        cmd = [str(bench), "skeleton", "--seed", str(seed), "--out", str(skel)]
        if trace:
            cmd.append("--trace")
        rc = run_checked(cmd, 60)
        if rc != 0:
            return rc if rc is not None else 124, None
    runs = []
    for _ in range(processes):
        rc, records = run_process(bins, workload, seed, seconds / processes, trace,
                                  corrupt, odir, skel)
        if records is None:
            break
        runs.append(records)
        if rc != 0:
            break
    if skel is not None:
        skel.unlink()
    return rc, (runs if len(runs) == processes else None)


def operation_counts(runs):
    """{op: [attempted, failed]} over the processes of one run and their
    ranks. Every rank attempts the same operations; one fails if any rank saw
    it fail."""
    counts = {}
    failed = set()
    for i, records in enumerate(runs):
        for op, n in records[0]["attempts"].items():
            counts.setdefault(op, [0, 0])[0] += n
        failed |= {(i, *f) for rec in records for f in rec["failures"]}
    for _proc, _rnd, op, _k in failed:
        counts.setdefault(op, [0, 0])[1] += 1
    return counts


def pooled(runs):
    """Rank 0's samples of every process, pooled, and the peak RSS over all
    of them: the input of end_to_end()."""
    samples = {}
    for records in runs:
        for name, xs in records[0]["samples"].items():
            samples.setdefault(name, []).extend(xs)
    return {"samples": samples,
            "values": {"peak_rss_mb": max(r[0]["values"]["peak_rss_mb"] for r in runs)}}


# ---------------------------------------------------------------------------
# Statistics.

def median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail_percentile(xs):
    """Highest of p50/p90/p95/p99/p99.9 with at least 10 samples beyond it."""
    n = len(xs)
    best = None
    for q in (50, 90, 95, 99, 99.9):
        if n * (1 - q / 100.0) >= 10:
            best = q
    if best is None:
        return None, None
    ys = sorted(xs)
    idx = min(n - 1, int(round(best / 100.0 * (n - 1))))
    return best, ys[idx]


def samples_of(record, metric, parity=None):
    xs = []
    for rnd, v in record["samples"].get(metric, []):
        if rnd < 0 or v is None:
            continue
        if parity is not None and rnd % 2 != parity:
            continue
        xs.append(v)
    return xs


def end_to_end(record, parity=None):
    """{metric: (median, n, tail_q, tail_value)} over the chosen rounds."""
    res = {}
    for name, _unit in END_TO_END:
        if name == "peak_rss_mb":
            v = record["values"].get("peak_rss_mb")
            res[name] = (v, 1, None, None)
            continue
        xs = samples_of(record, name, parity)
        q, tv = tail_percentile(xs)
        res[name] = (median(xs), len(xs), q, tv)
    return res


def print_end_to_end(workload, res, title):
    log(f"{title} ({workload}, p={P}):")
    log(f"  {'metric':16s} {'median':>12s} {'tail':>18s} {'samples':>8s}")
    for name, unit in END_TO_END:
        med, n, q, tv = res[name]
        tail = f"p{q:g}={tv:.5g}" if q is not None else "-"
        log(f"  {name:16s} {med:12.6g} {tail:>18s} {n:8d}  {unit}")


# ---------------------------------------------------------------------------
# The traced run: merged trace and per-layer metrics.

PER_LAYER = (
    [("kernels.dgemm_gflops", "GFLOP/s"), ("kernels.accel_minter_per_s", "Minter/s"),
     ("kernels.ocean_row_gbs", "GB/s")]
    + [(f"{a}.{m}", u) for a in APPS for m, u in (
        ("w_ms", "ms"), ("boundary_ms", "ms"), ("supersteps", "count"),
        ("h_packets", "count"), ("imbalance", "ratio"), ("seq_ms", "ms"),
        ("speedup", "x"), ("pred_err_pct", "%"))]
    + [("runtime.spawn_us", "us"), ("runtime.sync_us", "us"), ("barrier.wait_us", "us"),
       ("arena.fresh_slabs", "count"), ("heap.allocs_per_ss", "count")]
    + [(f"xchg.{ph}.{m}", u) for ph in ("small", "large") for m, u in (
        ("stage_us", "us"), ("boundary_us", "us"), ("drain_us", "us"),
        ("wire_bytes_per_ss", "B"))]
    + [("xchg.small.syscalls_per_stage", "count"), ("xchg.large.zc_share", "ratio"),
       ("xchg.sync.boundary_us", "us"), ("xchg.sync.cpu_per_wall", "ratio"),
       ("mesh.builds", "count")]
    + [(f"a2a.{pat}.{m}", u) for pat in ("uniform", "onehot") for m, u in (
        ("schedule", "enum"), ("supersteps", "count"), ("est_over_meas", "ratio"))]
    + [("cost.g_us", "us"), ("cost.L_us", "us"),
       ("setup.ctor_ms", "ms"), ("setup.first_ss_ms", "ms"), ("cpu_per_wall", "ratio")]
)

CALLER_TID = 99


def merged_spans(records):
    spans = []
    for rec in records:
        rank = rec["rank"]
        for sid, parent, track, name, t0, t1, args in rec["spans"]:
            spans.append({"rank": rank, "id": sid, "parent": parent, "track": track,
                          "name": name, "t0": t0, "t1": t1, "args": args})
    return spans


def write_trace(path, spans):
    """Chrome trace-event JSON: one process per rank, one track per worker."""
    events = []
    ranks = sorted({s["rank"] for s in spans})
    for r in ranks:
        events.append({"ph": "M", "name": "process_name", "pid": r, "tid": 0,
                       "args": {"name": f"rank {r}"}})
        events.append({"ph": "M", "name": "thread_name", "pid": r, "tid": CALLER_TID,
                       "args": {"name": "caller"}})
    workers = sorted({(s["rank"], s["track"]) for s in spans if s["track"] >= 0})
    for r, w in workers:
        events.append({"ph": "M", "name": "thread_name", "pid": r, "tid": w,
                       "args": {"name": f"worker {w}"}})
    for s in spans:
        args = dict(s["args"])
        args["id"] = s["id"]
        args["parent"] = s["parent"]
        events.append({"ph": "X", "name": s["name"], "pid": s["rank"],
                       "tid": CALLER_TID if s["track"] < 0 else s["track"],
                       "ts": s["t0"], "dur": max(0.0, s["t1"] - s["t0"]),
                       "args": args})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def per_layer(records, spans):
    by_id = {(s["rank"], s["id"]): s for s in spans}
    kids = {}
    for s in spans:
        kids.setdefault((s["rank"], s["parent"]), []).append(s)

    def children(s, name=None):
        return [c for c in kids.get((s["rank"], s["id"]), [])
                if name is None or c["name"] == name]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def round_of(s):
        while s["parent"]:
            s = by_id[(s["rank"], s["parent"])]
        return s["args"].get("round")

    def dur(s):
        return s["t1"] - s["t0"]

    m = {}
    rank0 = records[0]
    vals = rank0["values"]
    p = int(vals.get("p", P))

    # util/kernels and the ocean row kernels.
    m["kernels.dgemm_gflops"] = median([s["args"]["flops"] / dur(s) / 1e3
                                        for s in named("kernel.dgemm")])
    m["kernels.accel_minter_per_s"] = median([s["args"]["interactions"] / dur(s)
                                              for s in named("kernel.accel")])
    m["kernels.ocean_row_gbs"] = median([s["args"]["bytes"] / dur(s) / 1e3
                                         for s in named("kernel.ocean_row")])

    # cost/fit on the workload's own Runtime.
    g = median([s["args"]["g_us"] for s in named("cost.probe")])
    L = median([s["args"]["L_us"] for s in named("cost.probe")])
    m["cost.g_us"], m["cost.L_us"] = g, L

    def runs_of(op_name):
        """[(op span, [run span per rank])] grouped by round."""
        groups = {}
        for op in named(op_name):
            groups.setdefault(round_of(op), []).append(op)
        out = []
        for rnd in sorted(groups):
            ops = groups[rnd]
            runs = [r for op in ops for r in children(op, "run")]
            op0 = next((o for o in ops if o["rank"] == 0), ops[0])
            out.append((op0, runs))
        return out

    # apps/*: real applications (apps_deferred) or their skeletons. A real
    # app op holds one run per input instance; a skeleton op holds one run
    # per rank, replaying `reps` application runs.
    for app in APPS:
        rows = []
        for op, runs in runs_of("app." + app):
            if not runs:
                continue
            a = op["args"]
            if "reps" in a:
                reps = a["reps"]
                r0 = next((r for r in runs if r["rank"] == 0), runs[0])
                if len(runs) > 1:  # one rank per process: combine the ranks
                    works = [r["args"]["work_ms"] for r in runs]
                    W, total = max(works) / reps, sum(works) / reps
                else:
                    W, total = r0["args"]["W_ms"] / reps, r0["args"]["work_ms"] / reps
                S = (r0["args"]["S"] - 2) / reps + 1
                rows.append((a["per_rep_us"] / 1e3, W, total, S, a["H_app"], a["seq_ms"]))
            else:
                n = len(runs)
                rows.append((sum(r["args"]["wall_us"] for r in runs) / 1e3 / n,
                             sum(r["args"]["W_ms"] for r in runs) / n,
                             sum(r["args"]["work_ms"] for r in runs) / n,
                             sum(r["args"]["S"] for r in runs) / n,
                             sum(r["args"]["H"] for r in runs) / n,
                             a.get("seq_ms", 0.0)))
        if not rows:
            continue
        wall = median([r[0] for r in rows])
        W = median([r[1] for r in rows])
        S = median([r[3] for r in rows])
        H = median([r[4] for r in rows])
        seq = median([r[5] for r in rows])
        m[f"{app}.w_ms"] = W
        m[f"{app}.boundary_ms"] = median([r[0] - r[1] for r in rows])
        m[f"{app}.supersteps"] = S
        m[f"{app}.h_packets"] = H
        m[f"{app}.imbalance"] = median([p * r[1] / r[2] if r[2] > 0 else 1.0 for r in rows])
        m[f"{app}.seq_ms"] = seq
        m[f"{app}.speedup"] = seq / wall if wall > 0 else 0.0
        pred_ms = W + (g * H + L * S) / 1e3
        m[f"{app}.pred_err_pct"] = abs(pred_ms - wall) / wall * 100 if wall > 0 else 0.0

    # core/runtime and core/barrier.
    m["runtime.spawn_us"] = median([dur(s) / s["args"]["n"] for s in named("runtime.spawn")])
    m["runtime.sync_us"] = median([s["args"]["sync_us"] for s in named("runtime.sync")])
    m["barrier.wait_us"] = median([s["args"]["wait_us"] for s in named("barrier.wait")])

    # core/arena and the heap: counted over the traced rounds.
    per_round = {}
    for s in named("run"):
        per_round.setdefault(round_of(s), 0.0)
        per_round[round_of(s)] += s["args"].get("fresh_slabs", 0.0)
    m["arena.fresh_slabs"] = median(list(per_round.values()))
    allocs = steps = 0.0
    for ph in ("small", "large", "sync"):
        for op, runs in runs_of("phase." + ph):
            allocs += sum(r["args"]["allocs"] for r in runs)
            steps += runs[0]["args"]["S"] if runs else 0
    m["heap.allocs_per_ss"] = allocs / steps if steps else 0.0

    # The exchange path: per-superstep worker spans, max over workers.
    def worker_phase(ph, name):
        per_k = {}
        for op, runs in runs_of("phase." + ph):
            for r in runs:
                for c in children(r, name):
                    key = (round_of(op), c["args"]["k"])
                    per_k[key] = max(per_k.get(key, 0.0), dur(c))
        return median(list(per_k.values()))

    for ph in ("small", "large"):
        m[f"xchg.{ph}.stage_us"] = worker_phase(ph, "xchg.stage")
        m[f"xchg.{ph}.boundary_us"] = worker_phase(ph, "xchg.sync")
        m[f"xchg.{ph}.drain_us"] = worker_phase(ph, "xchg.drain")
        wb, zc, sc = [], [], []
        for op, runs in runs_of("phase." + ph):
            if not runs:
                continue
            boundaries = runs[0]["args"]["S"] - 1
            wire = sum(r["args"]["wire_bytes"] for r in runs)
            zcb = sum(r["args"]["zc_bytes"] for r in runs)
            wb.append(wire / boundaries)
            zc.append(zcb / (zcb + wire) if zcb + wire > 0 else 0.0)
            sc.append(sum(r["args"]["wire_syscalls"] for r in runs) /
                      (boundaries * p * max(1, p - 1)))
        m[f"xchg.{ph}.wire_bytes_per_ss"] = median(wb)
        if ph == "small":
            m["xchg.small.syscalls_per_stage"] = median(sc)
        else:
            m["xchg.large.zc_share"] = median(zc)
    m["xchg.sync.boundary_us"] = worker_phase("sync", "xchg.sync")
    cpw = []
    for op, runs in runs_of("phase.sync"):
        if runs:
            r0 = next((r for r in runs if r["rank"] == 0), runs[0])
            cpw.append(sum(r["args"]["cpu_us"] for r in runs) / r0["args"]["wall_us"])
    m["xchg.sync.cpu_per_wall"] = median(cpw)
    m["mesh.builds"] = vals.get("mesh.builds", 0.0)

    # core/collectives: the schedule observed, and the selector's estimate.
    for pat in ("uniform", "onehot"):
        ops = [op for op, _ in runs_of("a2a." + pat)]
        m[f"a2a.{pat}.schedule"] = median([o["args"]["schedule"] for o in ops])
        m[f"a2a.{pat}.supersteps"] = median([o["args"]["supersteps"] for o in ops])
        m[f"a2a.{pat}.est_over_meas"] = median(
            [o["args"]["est_us"] / o["args"]["meas_us"] for o in ops
             if "est_us" in o["args"] and o["args"]["meas_us"] > 0])

    # Set-up.
    setups = [s for s in named("setup") if s["rank"] == 0]
    m["setup.ctor_ms"] = median([s["args"]["ctor_us"] / 1e3 for s in setups])
    m["setup.first_ss_ms"] = median([s["args"]["first_ss_us"] / 1e3 for s in setups])
    m["cpu_per_wall"] = vals.get("cpu_per_wall", 0.0)
    return m


def print_per_layer(workload, m):
    log(f"per-layer metrics ({workload}, from the merged trace):")
    for name, unit in PER_LAYER:
        v = m.get(name)
        shown = "n/a" if v is None else f"{v:.6g}"
        extra = ""
        if name.endswith(".schedule") and v is not None:
            extra = {1: "  (direct)", 2: "  (tree)", 3: "  (two-phase)"}.get(int(round(v)), "")
        log(f"  {name:32s} {shown:>14s}  {unit}{extra}")


# ---------------------------------------------------------------------------

def one_run(args, bins):
    odir = build_dir() / "out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    # The traced run is one process: its trace has one track per worker and
    # rank of that process.
    rc, runs = run_workload(bins, args.workload, args.seed, args.seconds,
                            args.trace == 1, args.corrupt, odir,
                            PROCESSES if args.trace == 0 else 1)
    if runs is None:
        sys.stderr.write(f"perfbench: {args.workload} did not produce a record (exit {rc})\n")
        return None, 1
    counts = operation_counts(runs)
    attempted = sum(a for a, _ in counts.values())
    failed = sum(f for _, f in counts.values())
    for records in runs:
        for r in records:
            for e in r.get("errors", []):
                sys.stderr.write(f"perfbench: FAILED (rank {r['rank']}) {e}\n")
    log(f"operations: {attempted} attempted, {failed} failed, "
        f"fail_frac={failed / max(1, attempted):.6g}")
    if args.trace == 0:
        shutil.rmtree(odir, ignore_errors=True)
        res = end_to_end(pooled(runs))
        print_end_to_end(args.workload, res, f"end-to-end, {PROCESSES} processes")
        metrics = {n: {"value": res[n][0], "unit": u} for n, u in END_TO_END}
    else:
        records = runs[0]
        untraced = end_to_end(records[0], parity=1)
        traced = end_to_end(records[0], parity=0)
        print_end_to_end(args.workload, traced, "end-to-end, traced rounds")
        log("tracing overhead (traced vs untraced rounds of this run):")
        for name, unit in END_TO_END:
            a, b = traced[name][0], untraced[name][0]
            if name != "peak_rss_mb" and a == a and b == b and b > 0:
                log(f"  {name:16s} {100 * (a / b - 1):+8.2f} %")
        spans = merged_spans(records)
        trace_path = odir / "trace.json"
        write_trace(trace_path, spans)
        log(f"merged trace: {trace_path} ({len(spans)} spans, "
            f"{len({s['rank'] for s in spans})} rank(s))")
        layer = per_layer(records, spans)
        print_per_layer(args.workload, layer)
        metrics = {n: {"value": layer.get(n), "unit": u} for n, u in PER_LAYER}
    values = [v["value"] for v in metrics.values()]
    complete = all(isinstance(v, (int, float)) and v == v for v in values)
    correct = rc == 0 and failed == 0 and attempted > 0 and complete
    if not complete:
        sys.stderr.write("perfbench: some metrics were not measured\n")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, 0 if correct else 1


def selftest(bins, seconds):
    """Every reference corrupted: every checked operation must fail. Set-up
    (setup_s) checks no output, so it is the one operation that passes."""
    ok = True
    for wl in WORKLOADS:
        odir = build_dir() / "out" / f"selftest-{wl}-{os.getpid()}"
        rc, runs = run_workload(bins, wl, 1, seconds, False, True, odir)
        shutil.rmtree(odir, ignore_errors=True)
        counts = operation_counts(runs) if runs else {}
        checked = {op: c for op, c in counts.items() if op != "setup_s"}
        missed = sorted(op for op, (a, f) in checked.items() if f != a)
        good = bool(checked) and not missed
        ok = ok and good
        attempted = sum(a for a, _ in checked.values())
        failed = sum(f for _, f in checked.values())
        log(f"selftest {wl}: corrupted references -> {failed} of {attempted} "
            f"checked operations ({len(checked)} kinds) reported failed: "
            f"{'ok' if good else 'NOT DETECTED for ' + (', '.join(missed) or 'any')}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt every reference (the run must then fail)")
    ap.add_argument("--save", help="append this run's result as a JSON line")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    bins = build(bdir)
    if bins is None:
        sys.stderr.write(f"perfbench: build failed; see {bdir / 'build.log'}\n")
        return 1
    if args.selftest:
        return selftest(bins, min(args.seconds, 2))
    result, rc = one_run(args, bins)
    if result is None:
        return rc
    if args.save:
        with open(args.save, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, **result}) + "\n")
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
