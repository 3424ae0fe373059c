"""What the traced run wraps, and the per-layer metrics it reports.

Each layer metric is normalised per operation (or per compile), so runs
of different lengths, and commits of different speeds, compare directly.
The end-to-end metric and workload each layer should move are listed in
perfbench/README.md.
"""
from __future__ import annotations

import sys
from typing import Dict, List

from spans import Tracer, fixed
from workloads import Workload, expr_nodes

# (module, public function); the layer is named "<module>.<function>"
TRACED = (
    ("approxc.parser", "parse"),
    ("approxc.typecheck", "infer_type"),
    ("approxc.compiler", "compile_program"),
    ("approxc.interp", "eval_exact"),
    ("approxc.interp", "eval_approx"),
    ("approxc.interp", "eval_error"),
    ("approxc.floats", "float_interval_op_err"),
    ("approxc.floats", "nearest_float"),
    ("approxc.floats", "sin_f64"),
    ("approxc.families", "member_trials"),
    ("approxc.families", "aeq_check"),
    ("approxc.families", "check_approx_axioms"),
    ("approxc.quant", "q_leq"),
    ("approxc.quant", "q_plus"),
    ("approxc.quant", "check_quant_axioms"),
    ("approxc.checker", "check_soundness"),
)
# enclose_op is split by operation (named without symbols, which metric
# names may not hold), sin_point by precision bucket
ENCLOSE_OPS = {"+r": "addr", "-r": "subr", "*r": "mulr", "/r": "divr",
               "absr": "absr", "dr": "dr", "sinr": "sinr"}
SIN_BUCKETS = (64, 128, 256, 512, 1024, 2048, 4096)


def _layer(module: str, fn: str) -> str:
    return f"{module.split('.', 1)[1]}.{fn}"


def sin_bucket(bits: int) -> int:
    """The largest bucket not above ``bits`` (the smallest for less)."""
    b = SIN_BUCKETS[0]
    for cand in SIN_BUCKETS:
        if cand <= bits:
            b = cand
    return b


def layer_names() -> List[str]:
    names = [_layer(m, f) for m, f in TRACED]
    names += [f"enclosure.enclose_op.{op}" for op in ENCLOSE_OPS.values()]
    names += [f"enclosure.sin_point.p{b}" for b in SIN_BUCKETS]
    return names


COUNTER_UNITS = {
    "compiler.err_nodes": "nodes",
    "compiler.approx_nodes": "nodes",
    "compiler.evals": "1/compile",
    "compiler.rejected_frac": "ratio",
    "interp.diverged": "1/op",
    "interp.evals_per_verdict": "1/op",
    "families.escalated_frac": "ratio",
    "families.max_precision_bits": "bits",
    "checker.trials": "1/op",
    "unattributed_ms": "ms/op",
    "trace_overhead_frac": "ratio",
}


def install(wl: Workload) -> Tracer:
    tr = Tracer()
    interp = sys.modules["approxc.interp"]
    default_bits = interp.EvalConfig().precision_bits
    c = tr.counters

    def on_eval(args, kwargs, result):
        cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
        bits = default_bits if cfg is None else cfg.precision_bits
        c["evals"] += 1
        if bits > wl.start_bits:
            c["escalated_evals"] += 1
        c["max_precision_bits"] = max(c["max_precision_bits"], bits)
        if result is interp.DIVERGED:
            c["diverged"] += 1
        if tr.active["compiler.compile_program"]:
            c["compile_evals"] += 1

    for module, fn in TRACED:
        tr.install(module, fn, fixed(_layer(module, fn)),
                   on_eval if module == "approxc.interp" else None)
    tr.install("approxc.enclosure", "enclose_op",
               lambda a, k: "enclosure.enclose_op."
                            f"{ENCLOSE_OPS[a[0] if a else k['op']]}")
    tr.install("approxc.enclosure", "sin_point",
               lambda a, k: "enclosure.sin_point.p"
                            f"{sin_bucket(a[1] if len(a) > 1 else k['p'])}")
    return tr


def mean_nodes(traced, side: int) -> float:
    """Mean AST size of the approx (``side`` 0) or error (1) program over
    the operations that compiled, counted once per program after the
    loop."""
    done = sum(traced.program_ops.values())
    return sum(n * expr_nodes(traced.compiled[p][side])
               for p, n in traced.program_ops.items()) / done if done else 0.0


def per_layer(tr: Tracer, traced, untraced) -> Dict[str, dict]:
    """Per-operation layer metrics from the traced pass; ``untraced`` ran
    the same operations without wrappers."""
    ops = traced.ops
    out: Dict[str, dict] = {}
    for name in layer_names():
        out[f"{name}.calls"] = {"value": tr.calls.get(name, 0) / ops,
                                "unit": "1/op"}
        out[f"{name}.self_ms"] = {"value": tr.self_time.get(name, 0.0) * 1e3 / ops,
                                  "unit": "ms/op"}
    c = tr.counters
    evals = c.get("evals", 0)
    values = {
        "compiler.err_nodes": mean_nodes(traced, 1),
        "compiler.approx_nodes": mean_nodes(traced, 0),
        "compiler.evals": c.get("compile_evals", 0)
        / max(1, tr.calls.get("compiler.compile_program", 0)),
        "compiler.rejected_frac": traced.rejected / ops,
        "interp.diverged": c.get("diverged", 0) / ops,
        "interp.evals_per_verdict": evals / ops,
        "families.escalated_frac": c.get("escalated_evals", 0) / evals if evals else 0.0,
        "families.max_precision_bits": c.get("max_precision_bits", 0),
        "checker.trials": traced.trials / ops,
        "unattributed_ms": tr.self_time.get("op", 0.0) * 1e3 / ops,
        "trace_overhead_frac": traced.wall / untraced.wall - 1,
    }
    for name, v in values.items():
        out[name] = {"value": v, "unit": COUNTER_UNITS[name]}
    return out
