#!/usr/bin/env python3
"""approxc benchmark: time to verdict and compile time, end to end and
per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload check-sine --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop with one client for ``--seconds``
seconds, single process and single thread, and checks every verdict
against its known answer.  With ``--trace 0`` it reports the end-to-end
metrics, its times scaled to a reference host speed (see hostspeed.py);
with ``--trace 1`` it runs the same operations untraced and then traced,
and reports per-layer calls, self times and counters.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; ``correct`` is false when a verdict or an
emitted program is wrong.  Exit status: 0 after a run, 2 on a usage or
set-up error.
"""
import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

from hostspeed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("check-sine", "check-fix", "compile", "axioms")
# set-up (imports, inputs, warm-up) runs this many times, once in this
# process and the rest each in a fresh one, and the median is reported
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# share of --seconds the traced run spends on its untraced pass
TRACE_UNTRACED_SHARE = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "trials_per_s": "1/s",
    "compile_ms_p50": "ms",
    "compile_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class LoopStats:
    ops: int = 0
    failed: int = 0
    rejected: int = 0
    wrong: int = 0
    trials: int = 0
    # loop time without the settle() checks
    wall: float = 0.0
    verdict_s: List[float] = field(default_factory=list)
    compile_s: List[float] = field(default_factory=list)
    # wall-clock start and end of each completed operation
    op_spans: List[Tuple[float, float]] = field(default_factory=list)
    # traced passes: operations per program, and the approx and error
    # programs of its first compile (the derivation is not kept)
    program_ops: Dict[str, int] = field(default_factory=dict)
    compiled: Dict[str, Tuple[object, object]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def timed_loop(wl, seconds: Optional[float] = None, count: Optional[int] = None,
               tracer=None, probe: Optional[SpeedProbe] = None,
               settle: bool = True) -> LoopStats:
    """Closed loop: run operations until ``seconds`` of loop time have
    passed (and at least ``wl.min_ops`` ran), or exactly ``count``
    operations.  With a probe, the host speed is sampled between
    operations.  With ``settle``, each result is checked by
    ``wl.settle`` after its operation; that time is left out of the loop
    time."""
    st = LoopStats()
    t_start = time.perf_counter()
    settle_s = 0.0
    i = 0
    while True:
        if count is None:
            if time.perf_counter() - t_start - settle_s >= seconds and i >= wl.min_ops:
                break
        elif i >= count:
            break
        if probe is not None:
            probe.maybe_probe()
        t0 = time.perf_counter()
        try:
            r = wl.op(i) if tracer is None else tracer.span("op", wl.op, i)
        except Exception:  # one broken operation must not end the run
            st.ops += 1
            st.failed += 1
            if len(st.errors) < 5:
                st.errors.append(traceback.format_exc(limit=3))
            i += 1
            continue
        st.op_spans.append((t0, time.perf_counter()))
        st.ops += 1
        st.failed += r.failed
        st.rejected += r.rejected
        st.wrong += r.wrong
        st.trials += r.trials
        st.verdict_s.append(r.verdict_s)
        st.compile_s.append(r.compile_s)
        if tracer is not None and r.compiled is not None:
            st.program_ops[r.program] = st.program_ops.get(r.program, 0) + 1
            st.compiled.setdefault(r.program, (r.compiled.approx, r.compiled.err))
        if settle:
            t_settle = time.perf_counter()
            wl.settle(r)
            settle_s += time.perf_counter() - t_settle
        i += 1
    st.wall = time.perf_counter() - t_start - settle_s
    if probe is not None:
        probe.probe()
    return st


def _quantile(values: List[float], n: int, k: int) -> float:
    """The k-th of the n-quantiles, as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n)[k - 1]


def _figures(verdict_s: List[float], compile_s: List[float], trials: int,
             setup_s: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "verdict_ms_p50": statistics.median(verdict_s) * 1e3,
        "verdict_ms_p90": _quantile(verdict_s, 10, 9) * 1e3,
        "trials_per_s": trials / sum(verdict_s),
        "compile_ms_p50": statistics.median(compile_s) * 1e3,
        "compile_ms_p90": _quantile(compile_s, 10, 9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def end_to_end(st: LoopStats, setup_spans: List[Tuple[float, float]],
               probe: SpeedProbe) -> Tuple[dict, Dict[str, float]]:
    """The end-to-end metrics at the reference host speed, and the same
    figures in raw wall-clock time."""
    scales = [probe.scale(a, b) for a, b in st.op_spans]
    setup_raw = [b - a for a, b in setup_spans]
    scaled = _figures([v * k for v, k in zip(st.verdict_s, scales)],
                      [c * k for c, k in zip(st.compile_s, scales)], st.trials,
                      [d * probe.scale(a, b) for d, (a, b) in zip(setup_raw, setup_spans)])
    raw = _figures(st.verdict_s, st.compile_s, st.trials, setup_raw)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in scaled.items()}
    return metrics, raw


def set_up(name: str, seed: int):
    """Import, build the inputs and warm up; this process's set-up ends
    here."""
    import workloads
    wl = workloads.make(name, seed)
    wl.warmup()
    return wl


def fresh_set_up(name: str, seed: int) -> Tuple[float, float]:
    """The set-up of a fresh process, from its start to the end of its
    warm-up, in this process's perf_counter time (both read the
    system's monotonic clock)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        check=True)
    start, end = json.loads(out.stdout.strip().splitlines()[-1])
    return start, end


def set_up_spans(name: str, seed: int, probe: SpeedProbe) -> List[Tuple[float, float]]:
    """Start and end of SETUP_REPEATS set-ups: this process's, timed
    from its start, and fresh processes' after it, each paying for every
    import again.  The host speed is probed around each."""
    spans = [(PROCESS_START, time.perf_counter())]
    probe.probe()
    for _ in range(SETUP_REPEATS - 1):
        spans.append(fresh_set_up(name, seed))
        probe.probe()
    return spans


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def commit() -> str:
    """HEAD of the enclosing git checkout, read without running git;
    "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args, wl, setup_spans, loops: List[LoopStats],
                 probe: SpeedProbe) -> dict:
    ops = sum(st.ops for st in loops)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "setup_times_s": [b - a for a, b in setup_spans],
        "host_kernel_ms": {"median": statistics.median(probe.kernel_s) * 1e3,
                           "min": min(probe.kernel_s) * 1e3,
                           "max": max(probe.kernel_s) * 1e3,
                           "probes": len(probe.kernel_s)},
        "ops": ops,
        "rejected_ops": sum(st.rejected for st in loops),
        "verdict_samples": sum(len(st.verdict_s) for st in loops),
        "compile_samples": sum(len(st.compile_s) for st in loops),
        # a CompileError counts here, whether or not the program may be refused
        "failed_frac": sum(st.failed + st.rejected for st in loops) / ops,
        "wrong_verdicts": sum(st.wrong for st in loops),
        "errors": [e for st in loops for e in st.errors],
        **wl.meta(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up, print the set-up's start and end, and exit
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "approxc" / "__init__.py").is_file():
        print(f"perfbench: no approxc package under {SRC}; run from the root "
              "of an approxc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps([PROCESS_START, time.perf_counter()]))
        return 0
    probe = SpeedProbe()
    setup_spans = set_up_spans(args.workload, args.seed, probe)
    gc.collect()

    if args.trace:
        import layers
        untraced = timed_loop(wl, seconds=args.seconds * TRACE_UNTRACED_SHARE)
        tracer = layers.install(wl)
        try:
            # the same operations, whose fail records the untraced pass
            # has replayed already
            traced = timed_loop(wl, count=untraced.ops, tracer=tracer,
                                settle=False)
        finally:
            tracer.uninstall()
        loops = [untraced, traced]
        metrics = layers.per_layer(tracer, traced, untraced)
    else:
        loops = [timed_loop(wl, seconds=args.seconds, probe=probe)]
        metrics, raw = end_to_end(loops[0], setup_spans, probe)

    checks = wl.verify()
    meta = run_metadata(args, wl, setup_spans, loops, probe)
    meta["verify"] = checks
    if not args.trace:
        meta["raw_wall_clock"] = raw
    correct = meta["wrong_verdicts"] == 0 and not any(checks.values())
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-s{args.seed}.json"
        path.write_text(json.dumps({"meta": meta, **tracer.to_doc()}))
        meta["trace_file"] = str(path.relative_to(ROOT))

    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": meta["ops"],
                      "failed": sum(st.failed for st in loops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
