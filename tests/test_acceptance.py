"""Acceptance suite: one test per criterion, one printed verdict line
each.  Run with `pytest tests/test_acceptance.py -v -s` to see the
lines; tolerances are pinned here, not calibrated elsewhere.
"""
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from approxc.checker import check_rule_corpus
from approxc.compiler import CompileOpts, compile_program, float_op_err
from approxc.enclosure import from_rational
from approxc.families import FL, appr_member, check_approx_axioms, fn_family
from approxc.floats import (
    nearest_float, round_down_float, round_up_float, to_fraction,
)
from approxc.interp import EvalConfig, VErr, bound_of, eval_approx, eval_error
from approxc.parser import parse
from approxc.quant import check_quant_axioms, fn_err_instance, q_nonneg_reals
from approxc.sampling import trial_rng
from approxc.syntax import App, Builtin, ErrLit, FloatLit, RealLit

CFG = EvalConfig(fuel=500_000, precision_bits=128)
OPTS = CompileOpts(cfg=CFG)
# the report of the criterion 6 run, which
# `python scripts/run_corpus.py --trials 1000 --seed 42` also writes
CORPUS_REPORT = Path(__file__).resolve().parent / "golden" / "corpus_report.json"

PI40 = Fraction("3.1415926535897932384626433832795028841972")


def _verdict(n: int, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_pi_example():
    t0 = time.perf_counter()
    ok1 = appr_member(FL, ErrLit(Fraction("0.1415927")), FloatLit.of(3.0),
                      RealLit(PI40), trials=1, seed=42, cfg=CFG).ok
    ok2 = appr_member(FL, ErrLit(Fraction("0.14159266")), FloatLit.of(3.0),
                      RealLit(PI40), trials=1, seed=42, cfg=CFG).ok
    v3 = appr_member(FL, ErrLit(Fraction("0.1415926")), FloatLit.of(3.0),
                     RealLit(PI40), trials=1, seed=42, cfg=CFG)
    elapsed = time.perf_counter() - t0
    _verdict(1, ok1 and ok2 and v3.status == "fail" and elapsed < 1.0,
             f"pi membership at 128 bits, {elapsed:.3f}s")


def test_criterion_2_axiom_suites():
    t0 = time.perf_counter()
    cfg = EvalConfig(fuel=200_000, precision_bits=96, max_precision_bits=768)
    reps = [
        check_quant_axioms(q_nonneg_reals(), trials=1000, seed=42),
        check_quant_axioms(fn_err_instance(), trials=1000, seed=42),
        check_approx_axioms(FL, trials=300, seed=42, cfg=cfg),
        check_approx_axioms(fn_family(FL, FL), trials=150, seed=42, cfg=cfg),
    ]
    elapsed = time.perf_counter() - t0
    bad = [r.instance for r in reps if not r.ok]
    _verdict(2, not bad and elapsed < 30.0,
             f"4 suites, 0 failures, {elapsed:.1f}s"
             + (f"; failed: {bad}" if bad else ""))


def _floats_in(lo: Fraction, hi: Fraction, per_axis: int = 16):
    a = round_up_float(lo)
    b = round_down_float(hi)
    if a > b:
        return []
    out = {a, b, math.nextafter(a, math.inf), math.nextafter(b, -math.inf)}
    fa, fb = to_fraction(a), to_fraction(b)
    for i in range(1, per_axis - 1):
        c = nearest_float(fa + (fb - fa) * Fraction(i, per_axis - 1))
        out.add(c)
    return sorted(x for x in out if lo <= to_fraction(x) <= hi)


def test_criterion_3_float_op_brute_force():
    t0 = time.perf_counter()
    vals = [Fraction(1), Fraction(3, 2), Fraction(1) + Fraction(1, 1 << 52),
            Fraction(2), Fraction(5, 4)]
    qs = [Fraction(0), Fraction(1, 1 << 53), Fraction(1, 16), Fraction(1, 2),
          Fraction(1)]
    apply_f = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
               "*": lambda a, b: a * b, "/": lambda a, b: a / b}
    exact_f = apply_f
    all_ok = True
    tight_ok = True
    for op in "+-*/":
        achieved_tight = False
        for xe in vals:
            for xq in qs:
                for ye in vals:
                    for yq in qs:
                        bound = float_op_err(op, from_rational(xe, 128),
                                             VErr.point(xq),
                                             from_rational(ye, 128),
                                             VErr.point(yq))
                        if bound.is_infinite:
                            continue  # infinite bound holds trivially
                        r = exact_f[op](xe, ye)
                        xs = _floats_in(xe - xq, xe + xq)
                        ys = _floats_in(ye - yq, ye + yq)
                        worst = Fraction(0)
                        for xa in xs:
                            for ya in ys:
                                fl = apply_f[op](xa, ya)
                                if not math.isfinite(fl):
                                    continue
                                d = abs(to_fraction(fl) - r)
                                worst = max(worst, d)
                                if d > bound.hi:
                                    all_ok = False
                        # non-vacuity: the bound is met to within one ulp
                        # of the result in at least one cell per op
                        u = Fraction(math.ulp(abs(float(r)) + float(bound.hi)))
                        if xs and ys and worst >= bound.hi - u:
                            achieved_tight = True
        tight_ok = tight_ok and achieved_tight
    elapsed = time.perf_counter() - t0
    _verdict(3, all_ok and tight_ok and elapsed < 60.0,
             f"5^4 grid x 4 ops, exhaustive pairs, {elapsed:.1f}s")


def test_criterion_4_sin_substitution():
    t0 = time.perf_counter()
    r = compile_program(parse("sinr"), CompileOpts(enable_sin_subst=True,
                                                   cfg=CFG))
    rng = trial_rng(42, 0)
    ok = True
    for i in range(1000):
        x = Fraction(rng.randint(-2000, 2000), 10000)  # |x| <= 0.2
        a_f = nearest_float(x)
        extra = Fraction(0) if rng.randrange(2) else \
            Fraction(rng.randint(0, 100), 10**6)
        xq = abs(x - to_fraction(a_f)) + extra
        e_app = Builtin("sinr", (RealLit(x),))
        a_app = App(r.approx, FloatLit.of(a_f))
        q_app = App(App(r.err, RealLit(x)), ErrLit(xq))
        v = appr_member(FL, q_app, a_app, e_app, trials=1, seed=42, cfg=CFG)
        if v.status == "fail":
            ok = False
            break
    # the bound at x = 1/10, q = 0 is |0.1 - sin 0.1|, checked against an
    # independent Taylor evaluation with explicit remainder
    x = Fraction(1, 10)
    taylor = x**3 / 6 - x**5 / 120 + x**7 / 5040
    rem = x**9 / 362880
    qv = bound_of(eval_error(App(App(r.err, RealLit(x)), ErrLit(Fraction(0))),
                             cfg=CFG))
    bound_ok = (qv.lo <= taylor + rem and qv.hi >= taylor - rem
                and qv.hi - qv.lo < Fraction(1, 2**100)
                and abs(qv.lo - Fraction("1.66583e-4")) < Fraction(1, 10**8))
    elapsed = time.perf_counter() - t0
    _verdict(4, ok and bound_ok and elapsed < 10.0,
             f"1000 samples, bound(0.1, 0) = {float(qv.lo):.6e}, {elapsed:.1f}s")


def test_criterion_5_perforation():
    t0 = time.perf_counter()
    src8 = "(redseq +r 8 (lam (i Nat) (nat2real i)))"
    r8 = compile_program(parse(src8), CompileOpts(perforation={"L0": 2},
                                                  cfg=CFG))
    qv = bound_of(eval_error(r8.err, cfg=CFG))
    av = eval_approx(r8.approx, cfg=CFG)
    tight = (qv.lo == qv.hi == 4 and av.value == 24.0
             and abs(Fraction(av.value) - 28) == qv.lo)

    src7 = "(redseq +r 7 (lam (i Nat) (nat2real i)))"
    r7 = compile_program(parse(src7), CompileOpts(perforation={"L0": 2},
                                                  cfg=CFG))
    rem_validated = any("remainder" in sc.description
                        and sc.verdict.status == "pass"
                        for sc in r7.derivation.side_conditions)
    v7 = appr_member(FL, r7.err, r7.approx, parse(src7), trials=100, seed=42,
                     cfg=CFG)
    elapsed = time.perf_counter() - t0
    _verdict(5, tight and rem_validated and v7.ok and elapsed < 10.0,
             f"bound 4 tight at 8/2; remainder validated at 7/2, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def corpus_run(corpus_dir):
    t0 = time.perf_counter()
    rep = check_rule_corpus(str(corpus_dir), OPTS, trials=1000, seed=42,
                            cfg=CFG)
    return rep, time.perf_counter() - t0


def test_criterion_6_corpus_soundness(corpus_run):
    rep, elapsed = corpus_run
    bad = [e.name for e in rep.entries if e.status not in ("ok",)]
    _verdict(6, rep.ok and not bad and len(rep.entries) >= 20
             and elapsed < 300.0,
             f"{len(rep.entries)} programs, 1000 trials each, "
             f"0 failures, {elapsed:.1f}s"
             + (f"; bad: {bad}" if bad else ""))


def test_corpus_report_bytes_are_pinned(corpus_run):
    rep, _ = corpus_run
    assert rep.to_json() + "\n" == CORPUS_REPORT.read_text()


def test_criterion_7_metamorphic_weakening(corpus_dir):
    t0 = time.perf_counter()
    rep = check_rule_corpus(str(corpus_dir), OPTS, trials=150, seed=42,
                            cfg=CFG, weaken_by=Fraction(1, 1000))
    all_pass = rep.ok and all(
        e.report is not None and e.report.passes == e.report.trials
        for e in rep.entries)
    elapsed = time.perf_counter() - t0
    _verdict(7, all_pass, f"weakened corpus keeps every pass, {elapsed:.1f}s")


def test_criterion_8_determinism(corpus_dir):
    t0 = time.perf_counter()
    r1 = check_rule_corpus(str(corpus_dir), OPTS, trials=120, seed=42, cfg=CFG)
    r2 = check_rule_corpus(str(corpus_dir), OPTS, trials=120, seed=42, cfg=CFG)
    same = r1.to_json() == r2.to_json()
    elapsed = time.perf_counter() - t0
    _verdict(8, same, f"byte-identical corpus reports, {elapsed:.1f}s")
