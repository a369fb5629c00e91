#!/usr/bin/env python3
"""ossprim benchmark: five closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload prp-exact-small --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the library is imported from the
checkout's ``src``, and the run fails without printing a result if it is not
there.  Every op's outputs are checked structurally, and at the default seed
also against the golden digests in ``perfbench/golden``.

Timed metrics are reported at reference speed.  The shared host's CPU speed
drifts by +-20% over tens of seconds, which would swamp a 10% bound.  So a
fixed reference loop (``speed.py``) is timed every half second, and each op's
wall time is multiplied by the host speed measured around it.  The raw
wall-time figures are printed on the notes lines.

--trace 0 measures for --seconds and prints the end-to-end metrics.
--trace 1 runs ops untraced for half of --seconds, then replays the same ops
from a fresh set-up under the tracer (``tracer.py``), checks that both passes
give identical digests, prints the per-layer metrics and writes the spans to
``perfbench/out``.  The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

# one client and no threads: keep numpy's BLAS from starting a thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUPS = 5  # fresh-process set-ups; setup_s reports their median
SPEED_EVERY_S = 0.5
RSS_OPS = 64  # peak_rss_mb is read after this many ops: a fixed amount of work


def _import_library() -> bool:
    """Put the checkout's src first on the path; True if ossprim came from it."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import ossprim
    except ImportError:
        return False
    return os.path.abspath(ossprim.__file__).startswith(src + os.sep)


def load_golden(name: str) -> list[str]:
    path = os.path.join(HERE, "golden", f"{name}.txt")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [ln.strip() for ln in f if ln.strip() and not ln.startswith("#")]


def _direct(i, fn, *args):
    return fn(*args)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class OpLog:
    latencies: list = field(default_factory=list)  # at reference speed
    raw_latencies: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    oks: list = field(default_factory=list)
    evals: int = 0
    wall: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.oks.count(False)


def run_ops(wl, state, golden, *, seconds=None, ops=None, call=_direct) -> OpLog:
    """The closed loop: ops 0, 1, ... until the deadline (at least one op), or
    exactly ``ops`` ops.  An op fails on an exception, a failed structural
    check or a golden-digest mismatch."""
    from speed import speed

    log = OpLog()
    clock = time.perf_counter
    speeds, speed_before = [speed()], []
    last_speed = begin = clock()
    deadline = begin + (seconds or 0.0)
    i = 0
    while (i < ops) if ops is not None else (i == 0 or clock() < deadline):
        if clock() - last_speed >= SPEED_EVERY_S:
            speeds.append(speed())
            last_speed = clock()
        speed_before.append(len(speeds) - 1)
        t = clock()
        try:
            evals, ok, payload = call(i, wl.op, state, i)
            digest = hashlib.sha256(payload).hexdigest()[:16]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            evals, ok, digest = 0, False, None
        log.raw_latencies.append(clock() - t)
        if ok and i < len(golden) and digest != golden[i]:
            print(f"{wl.name}: op {i} digest {digest} != golden {golden[i]}", file=sys.stderr)
            ok = False
        if ok:
            log.evals += evals
        else:
            print(f"{wl.name}: op {i} failed", file=sys.stderr)
        log.oks.append(ok)
        log.digests.append(digest)
        i += 1
        if i == RSS_OPS:
            log.peak_rss_mb = _peak_rss_mb()
    log.wall = clock() - begin
    log.peak_rss_mb = log.peak_rss_mb or _peak_rss_mb()
    speeds.append(speed())
    log.latencies = [lat * (speeds[j] + speeds[j + 1]) / 2
                     for lat, j in zip(log.raw_latencies, speed_before)]
    return log


def setup_seconds(name: str, seed: int) -> list[float]:
    """Process start to the end of set-up, in SETUPS fresh interpreters, at
    reference speed."""
    from speed import speed

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    out = []
    before = speed()
    for _ in range(SETUPS):
        t = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            raw = time.perf_counter() - t
            proc.stdout.read()
        if proc.returncode or line.strip() != "ready":
            raise RuntimeError(f"set-up of {name} failed in a fresh process")
        after = speed()
        out.append(raw * (before + after) / 2)
        before = after
    return out


def tail(latencies: list, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of ops beyond it."""
    ordered = sorted(latencies)
    rank = max(1, int(-(-len(ordered) * pct // 100)))
    return ordered[rank - 1], len(ordered) - rank


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object plus ``notes`` for the human summary."""
    import workloads

    wl = workloads.WORKLOADS[name]
    golden = load_golden(name) if seed == workloads.DEFAULT_SEED else []
    if not trace:
        setup_times = setup_seconds(name, seed)
        log = run_ops(wl, wl.setup(seed), golden, seconds=seconds)
        value, beyond = tail(log.latencies, wl.tail_pct)
        metrics = {
            "evals_per_s": (log.evals / sum(log.latencies), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(log.latencies), "ms"),
            "op_tail_ms": (1e3 * value, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (log.peak_rss_mb, "MB"),
        }
        notes = [f"{log.ops} ops, {log.evals} evals in {log.wall:.2f} s; "
                 f"op_fail_ratio {log.failed / log.ops:.4f}",
                 f"raw wall time: evals_per_s {log.evals / sum(log.raw_latencies):.4f}, "
                 f"op_p50_ms {1e3 * statistics.median(log.raw_latencies):.4f}",
                 f"op_tail_ms is p{wl.tail_pct:g} with {beyond} of {log.ops} ops beyond it",
                 "setup_s is the median of " + ", ".join(f"{s:.3f}" for s in setup_times)]
        return _result(log.failed == 0, log.ops, log.failed, metrics, notes)

    import tracer as tracing

    plain = run_ops(wl, wl.setup(seed), golden, seconds=seconds / 2)
    state = wl.setup(seed)
    tr = tracing.Tracer()
    with tr.installed():
        traced = run_ops(wl, state, golden, ops=plain.ops, call=tr.call_op)
    tr.write(os.path.join(OUT_DIR, f"{name}-trace.npz"), seed=seed)
    differ = [i for i, (a, b) in enumerate(zip(plain.digests, traced.digests)) if a != b]
    failed = sum(1 for i, (a, b) in enumerate(zip(plain.oks, traced.oks)) if not (a and b)
                 or plain.digests[i] != traced.digests[i])
    metrics, shares = tracing.layer_metrics(tr, traced.evals, traced.ops)
    overhead = sum(traced.latencies) / sum(plain.latencies)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    problems = tracing.check_layers(name, wl.layer, metrics, shares)
    if differ:
        problems.append(f"{name}: traced and untraced digests differ at ops {differ[:10]}")
    for p in problems:
        print(p, file=sys.stderr)
    notes = [f"{plain.ops} ops traced; {len(tr.name)} spans; overhead x{overhead:.3f}",
             "self shares: " + ", ".join(f"{k} {v:.3f}" for k, v in
                                         sorted(shares.items(), key=lambda kv: -kv[1]))
             + f", bench {metrics['bench.self_share'][0]:.3f}"]
    notes += [f"FAILED CHECK: {p}" for p in problems]
    return _result(failed == 0 and not problems, plain.ops, failed, metrics, notes)


def _result(correct, attempted, failed, metrics, notes) -> dict:
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "notes": notes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not _import_library():
        print(f"ossprim not found under {os.path.join(ROOT, 'src')}: "
              "run from the root of an ossprim checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:  # a child of setup_seconds
        workloads.WORKLOADS[args.workload].setup(args.seed)
        print("ready", flush=True)
        return 0
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in res.pop("notes"):
        print(f"# {line}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
