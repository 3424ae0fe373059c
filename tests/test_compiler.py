import contextlib
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import approxc.compiler
import approxc.typecheck

from approxc.compiler import (
    CompileError, CompileOpts, NestingTooDeep, NoRuleApplies, OrderingUndecidable,
    SideConditionFailed, Unsupported, compile_expr, compile_program, float_op_err, fold_err,
    label_sites, nesting_guarded, weaken,
)
from approxc.enclosure import RealEnclosure, from_rational
from approxc.families import (
    FL, ApproxCtx, Pi, approx_ty, err_ty, family_source, sample_member_triple,
    weaken_err_expr,
)
from approxc.floats import (
    MAXFLOAT_FRAC, float_bits, nearest_float, round_down_float,
    round_up_float, to_fraction,
)
from approxc.interp import (
    DIVERGED, EvalConfig, OracleInconclusive, VErr, bound_of, eval_approx,
    eval_error, eval_exact,
)
from approxc.checker import _instantiations, check_soundness, load_sidecar_opts
from approxc.parser import ParseError, parse
from approxc.sampling import trial_rng
from approxc.syntax import (
    REAL, App, BoolLit, Builtin, ErrLit, FloatLit, If, Lam, NatLit, RealLit,
    Var, children, map_children, to_source,
)
from approxc.typecheck import TyCtx, TypeMismatch, infer_type
from test_random_programs import programs

REPO = Path(__file__).resolve().parents[1]
CFG = EvalConfig(fuel=500_000, precision_bits=128)
OPTS = CompileOpts(cfg=CFG)


def _enc(q, p=128):
    return from_rational(Fraction(q), p)


def _perr(q):
    return VErr.point(Fraction(q))


def test_real_literal_rule_exact_distance():
    r = compile_program(parse("1/3"), OPTS)
    assert isinstance(r.approx, FloatLit)
    assert r.approx.bits == 0x3FD5555555555555
    # the bound is the exact rational distance, frozen by hand:
    # 1/3 - 6004799503160661/2^54 = 1/(3*2^54)
    assert r.err == ErrLit(Fraction(1, 3 * 2**54))
    assert r.derivation.rule == "R-Lit"


def test_identity_compiles_to_identity():
    r = compile_program(parse("(lam (x Real) x)"), OPTS)
    assert to_source(r.approx) == "(lam (x_a Float64) x_a)"
    assert to_source(r.err) == "(lam (x Real) (lam (x_q ErrReal) x_q))"
    assert family_source(r.family) == "Fl => Fl"


def test_sin_substitution_shape():
    r = compile_program(parse("sinr"), CompileOpts(enable_sin_subst=True, cfg=CFG))
    assert r.derivation.rule == "R-SinSubst"
    assert to_source(r.approx) == "(lam (x Float64) x)"
    # error: input error plus the distance between x and sin x
    assert to_source(r.err) == \
        "(lam (xe Real) (lam (xq ErrReal) (+q xq (dr xe (sinr xe)))))"


def test_sin_without_substitution_lowers_to_sinf():
    r = compile_program(parse("sinr"), OPTS)
    assert r.derivation.rule == "R-Op"
    assert to_source(r.approx) == "sinf"


# -- float_op_err -----------------------------------------------------------------

def test_float_op_err_point_no_width():
    out = float_op_err("+", _enc(1), _perr(0), _enc(2), _perr(0))
    assert out.lo == out.hi == 0  # 3.0 exactly representable


def test_float_op_err_interval_width():
    out = float_op_err("+", _enc(1), _perr(Fraction(1, 2)),
                       _enc(2), _perr(Fraction(1, 2)))
    assert out.lo == out.hi == 1  # interval [2, 4], exact result 3


def test_float_op_err_overflow_is_infinite():
    big = RealEnclosure(MAXFLOAT_FRAC, MAXFLOAT_FRAC, 128)
    out = float_op_err("*", big, _perr(0), big, _perr(0))
    assert out.is_infinite


def test_float_op_err_divisor_straddle():
    out = float_op_err("/", _enc(1), _perr(0), _enc(1), _perr(2))
    assert out.is_infinite


def test_float_op_err_infinite_input_propagates():
    out = float_op_err("+", _enc(1), VErr(None, None), _enc(1), _perr(0))
    assert out.is_infinite


def _floats_in(lo: Fraction, hi: Fraction, n: int = 8):
    """Representable points inside [lo, hi], endpoints included."""
    a = round_up_float(lo)
    b = round_down_float(hi)
    if a > b:
        return []
    out = {a, b}
    fa, fb = to_fraction(a), to_fraction(b)
    for i in range(1, n - 1):
        c = nearest_float(fa + (fb - fa) * Fraction(i, n - 1))
        if lo <= to_fraction(c) <= hi:
            out.add(c)
    out.add(math.nextafter(a, math.inf))
    out.add(math.nextafter(b, -math.inf))
    return sorted(x for x in out if lo <= to_fraction(x) <= hi)


def _apply_float(op, x, y):
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    return x / y


def test_float_op_brute_force_small_grid():
    """Enumerated float pairs never exceed the synthesized bound."""
    xs = [Fraction(1), Fraction(3, 2), Fraction(2)]
    qs = [Fraction(0), Fraction(1, 16), Fraction(1, 2)]
    exact = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
             "*": lambda a, b: a * b, "/": lambda a, b: a / b}
    for op in "+-*/":
        achieved_tight = False
        for xe in xs:
            for xq in qs:
                for ye in xs:
                    for yq in qs:
                        if op == "/" and ye - yq <= 0:
                            continue
                        bound = float_op_err(op, _enc(xe), _perr(xq),
                                             _enc(ye), _perr(yq))
                        if bound.is_infinite:
                            continue
                        r = exact[op](xe, ye)
                        worst = Fraction(0)
                        pairs = 0
                        for xa in _floats_in(xe - xq, xe + xq):
                            for ya in _floats_in(ye - yq, ye + yq):
                                fl = _apply_float(op, xa, ya)
                                d = abs(to_fraction(fl) - r)
                                assert d <= bound.hi, (op, xe, xq, ye, yq)
                                worst = max(worst, d)
                                pairs += 1
                        if pairs and worst == bound.lo == bound.hi:
                            achieved_tight = True
        assert achieved_tight, op


# -- perforation -------------------------------------------------------------------

def test_perforation_even_count_tight():
    opts = CompileOpts(perforation={"L0": 2}, cfg=CFG)
    src = "(redseq +r 8 (lam (i Nat) (nat2real i)))"
    r = compile_program(parse(src), opts)
    assert r.derivation.rule == "R-Perforate"
    assert r.derivation.site == "L0"
    # the perforated program keeps every second element, doubled
    assert eval_approx(r.approx, cfg=CFG).value == 24.0
    ev = eval_exact(parse(src), cfg=CFG)
    assert ev.enc.contains(Fraction(28))
    qv = bound_of(eval_error(r.err, cfg=CFG))
    assert qv.lo == qv.hi == 4  # tight: |28 - 24| = 4
    assert abs(Fraction(24) - Fraction(28)) == qv.lo


def test_perforation_identity_at_one():
    r = compile_program(parse("(redseq +r 8 (lam (i Nat) (nat2real i)))"), OPTS)
    assert eval_approx(r.approx, cfg=CFG).value == 28.0
    qv = bound_of(eval_error(r.err, cfg=CFG))
    assert qv.hi == 0


def test_perforation_odd_count_needs_remainder():
    opts = CompileOpts(perforation={"L0": 2}, cfg=CFG)
    src = "(redseq +r 7 (lam (i Nat) (nat2real i)))"
    r = compile_program(parse(src), opts)
    # the float fold adds 0+0+2+2+4+4+6+6 = 24 exactly, and the drift and
    # remainder term is the exact |21 - 24| = 3
    descs = [sc.description for sc in r.derivation.side_conditions]
    assert any("remainder" in d for d in descs)
    av = eval_approx(r.approx, cfg=CFG)
    qv = bound_of(eval_error(r.err, cfg=CFG))
    assert abs(Fraction(av.value) - 21) <= qv.lo
    assert qv.lo == qv.hi == 3


def test_perforation_past_the_count_is_bounded_exactly():
    opts = CompileOpts(perforation={"L0": 4}, cfg=CFG)
    r = compile_program(
        parse("(redseq +r 1 (lam (i Nat) (nat2real (-n 1 i))))"), opts)
    # the one kept element, 1, is added four times against the exact 1
    assert eval_approx(r.approx, cfg=CFG).value == 4.0
    qv = bound_of(eval_error(r.err, cfg=CFG))
    assert qv.lo == qv.hi == 3


def test_unknown_perforation_site_is_refused(tmp_path):
    src = "(redseq +r 8 (lam (i Nat) (nat2real i)))"
    with pytest.raises(CompileError, match="L3.*L0"):
        compile_program(parse(src), CompileOpts(perforation={"L3": 2}, cfg=CFG))
    p = tmp_path / "sum8.ax"
    p.write_text(src)
    (tmp_path / "sum8.opts.json").write_text('{"perforate": {"l0": 2}}')
    with pytest.raises(CompileError, match="l0.*L0"):
        compile_program(parse(src), load_sidecar_opts(p, OPTS))


def test_reduction_bound_covers_fold_rounding():
    e = parse("(lam (x Real) (redseq +r 7 (lam (i Nat) (*r x 1/10))))")
    r = compile_program(e, OPTS)
    # x = 1.6830850267032698 is one of the inputs where the float fold's
    # own rounding exceeds the sum of the per-element errors
    xs = [1.6830850267032698] + [0.5 + 1.5 * j / 24 for j in range(25)]
    for x in xs:
        xe = RealLit(to_fraction(x))
        ev = eval_exact(App(e, xe), cfg=CFG)
        av = to_fraction(eval_approx(App(r.approx, FloatLit.of(x)), cfg=CFG).value)
        qv = bound_of(eval_error(App(App(r.err, xe), ErrLit(Fraction(0))),
                                 cfg=CFG))
        assert max(abs(ev.enc.lo - av), abs(ev.enc.hi - av)) <= qv.lo, x


def test_reduction_overflow_gives_infinite_bound():
    e = parse("(lam (x Real) (redseq +r 2 (lam (i Nat) x)))")
    r = compile_program(e, OPTS)
    x = 2.0 ** 1023
    assert math.isinf(eval_approx(App(r.approx, FloatLit.of(x)), cfg=CFG).value)
    qv = bound_of(eval_error(
        App(App(r.err, RealLit(to_fraction(x))), ErrLit(Fraction(0))), cfg=CFG))
    assert qv.is_infinite


def test_cross_condition_bound_covers_disagreeing_branches():
    e = parse("(lam (x Real) (if (leqr x 1/3) 0/1 1/1))")
    r = compile_program(e, OPTS)
    # the float input rounds 1/3 + 2^-60 down onto the float threshold,
    # so the float program takes the other branch: distance 1
    x = Fraction(1, 3) + Fraction(1, 2**60)
    xa = nearest_float(x)
    assert eval_approx(App(r.approx, FloatLit.of(xa)), cfg=CFG).value == 0.0
    qv = bound_of(eval_error(App(App(r.err, RealLit(x)),
                                 ErrLit(abs(x - to_fraction(xa)))), cfg=CFG))
    assert qv.lo >= 1


def test_fix_sum_bound_covers_erroneous_nat_inputs(corpus_dir):
    # a small fuel makes the error recursion exhaust quickly; the
    # infinite bound that results is sound
    cfg = EvalConfig(fuel=20_000, precision_bits=128)
    e = parse((corpus_dir / "fix_sum.ax").read_text())
    r = compile_program(e, CompileOpts(cfg=cfg))
    for n, n_a, n_q in [(0, 1, 1), (3, 4, 1)]:
        ev = eval_exact(App(e, NatLit(n)), cfg=cfg)
        av = to_fraction(eval_approx(App(r.approx, NatLit(n_a)), cfg=cfg).value)
        qv = bound_of(eval_error(App(App(r.err, NatLit(n)), NatLit(n_q)),
                                 cfg=cfg))
        measured = max(abs(ev.enc.lo - av), abs(ev.enc.hi - av))
        assert measured > 0
        assert qv.is_infinite or measured <= qv.lo, (n, n_a, n_q)


def test_perforation_rejects_other_combiners():
    opts = CompileOpts(perforation={"L0": 2}, cfg=CFG)
    with pytest.raises(Unsupported):
        compile_program(parse("(redseq *r 8 (lam (i Nat) (nat2real i)))"), opts)


def test_perforation_subdivides_affine_generator():
    opts = CompileOpts(perforation={"L0": 4}, cfg=CFG)
    src = "(redseq +r 8 (lam (i Nat) (nat2real (*n 3 i))))"
    r = compile_program(parse(src), opts)
    av = eval_approx(r.approx, cfg=CFG)
    ev = eval_exact(parse(src), cfg=CFG)
    qv = bound_of(eval_error(r.err, cfg=CFG))
    exact = 3 * sum(range(8))
    assert ev.enc.contains(Fraction(exact))
    assert abs(Fraction(av.value) - exact) <= qv.lo


# -- weakening ---------------------------------------------------------------------

def test_weaken_records_side_condition():
    r = compile_program(parse("1/3"),
                        CompileOpts(weaken_to=parse("(err 1/2)"), cfg=CFG))
    assert r.derivation.rule == "A-Weak"
    assert r.err == ErrLit(Fraction(1, 2))
    sc = r.derivation.side_conditions[0]
    assert sc.verdict.status == "pass"


def test_weaken_rejects_smaller_bound():
    with pytest.raises(SideConditionFailed):
        compile_program(parse("1/3"),
                        CompileOpts(weaken_to=parse("(err 0/1)"), cfg=CFG))


def test_weaken_idempotence_at_verdict_level():
    """Weakening to q then to a larger q'' equals weakening directly."""
    r0 = compile_program(parse("1/3"), OPTS)
    r1 = weaken(r0, ErrLit(Fraction(1, 4)), OPTS)
    r2 = weaken(r1, ErrLit(Fraction(1, 2)), OPTS)
    direct = weaken(r0, ErrLit(Fraction(1, 2)), OPTS)
    assert r2.approx == direct.approx
    assert r2.err == direct.err


def test_weaken_escalates_an_undecided_base_comparison():
    # the target is the synthesized bound's lower endpoint at 128 bits,
    # where the two overlap; a higher precision shows the bound above it
    e, opts = parse("(sinr 1/1)"), CompileOpts(enable_sin_subst=True, cfg=CFG)
    r0 = compile_program(e, opts)
    assert to_source(r0.err) == "(dr 1/1 (sinr 1/1))"
    lo = bound_of(eval_error(r0.err, cfg=CFG)).lo
    with pytest.raises(SideConditionFailed):
        compile_program(e, dataclasses.replace(opts, weaken_to=ErrLit(lo)))
    # a target equal to the bound stays undecided at the cap: the join is
    # emitted, sound whichever way the comparison goes; nothing is sampled
    r = compile_program(e, dataclasses.replace(opts, weaken_to=r0.err))
    sc = r.derivation.side_conditions[0]
    assert r.err == Builtin("maxq", (r0.err, r0.err))
    assert sc.verdict.status == "pass" and not sc.verdict.on_samples
    assert sc.verdict.reason == \
        "pointwise join emitted: comparison undecided at 4096 bits"


def test_weaken_escalates_past_an_undecided_comparison_in_the_target():
    # 1/3 and 1/3 + 2^-200 overlap at 128 bits and separate at 256
    target = parse(f"(if (leqr 1/3 (+r 1/3 1/{2 ** 200})) (err 1/1) (err 2/1))")
    r = compile_program(parse("1/3"), CompileOpts(weaken_to=target, cfg=CFG))
    sc = r.derivation.side_conditions[0]
    assert r.err == target
    assert sc.verdict.status == "pass" and not sc.verdict.on_samples


def test_weaken_to_an_undecidable_target_is_refused():
    target = parse("(if (leqr 1/3 1/3) (err 1/1) (err 2/1))")
    with pytest.raises(OrderingUndecidable, match="at the 4096-bit cap"):
        compile_program(parse("1/3"), CompileOpts(weaken_to=target, cfg=CFG))
    # at a function family compilation evaluates nothing: the join is
    # emitted, and evaluating it is the checker's concern
    target = parse("(lam (x Real) (lam (x_q ErrReal) "
                   "(if (leqr 1/3 1/3) (err 1/1) (err 2/1))))")
    r = compile_program(parse("(lam (x Real) x)"),
                        CompileOpts(weaken_to=target, cfg=CFG))
    assert to_source(r.err) == (
        "(lam (x Real) (lam (x_q ErrReal) "
        "(maxq x_q (if (leqr 1/3 1/3) (err 1/1) (err 2/1)))))")
    with pytest.raises(OracleInconclusive):
        _err_at(r.err, 1)


_BIG = 2 ** 200


def _err_at(err, x, xq=Fraction(0)):
    return bound_of(eval_error(App(App(err, RealLit(Fraction(x))),
                                   ErrLit(xq)), cfg=CFG))


def test_weaken_at_a_function_family_does_not_rest_on_samples():
    # the target is below the synthesized error only past 2^31, where no
    # sampled real reaches; the emitted error still bounds x * x there
    target = parse(f"(lam (x Real) (lam (x_q ErrReal) (if (leqr x "
                   f"2147483648/1) (err {_BIG}/1) (err 0/1))))")
    r = compile_program(parse("(lam (x Real) (*r x x))"),
                        CompileOpts(weaken_to=target, cfg=CFG))
    sc = r.derivation.side_conditions[0]
    assert r.derivation.rule == "A-Weak" and r.derivation.err == r.err
    assert sc.verdict.status == "pass" and not sc.verdict.on_samples
    assert sc.verdict.reason == "pointwise join emitted: the ordering is " \
        "not checked at a function family"
    x = 2 ** 32 + 1
    assert _err_at(r.err, x).lo >= 1
    assert abs(Fraction(x * x) - to_fraction(float(x) * float(x))) == 1
    # where the target is above, the join is the target
    assert _err_at(r.err, 3) == _err_at(target, 3) == VErr.point(_BIG)


def test_weaken_at_a_function_family_below_the_error_emits_the_join():
    # the target is below the synthesized error at every input with error,
    # so a sampled ordering check would refuse it; the join is the
    # synthesized error there, and a check of the claim passes
    e = parse("(lam (x Real) (*r x x))")
    r0 = compile_program(e, OPTS)
    target = parse("(lam (x Real) (lam (x_q ErrReal) (err 0/1)))")
    r = compile_program(e, CompileOpts(weaken_to=target, cfg=CFG))
    assert to_source(r.err) == \
        "(lam (x Real) (lam (x_q ErrReal) (*err x x_q x x_q)))"
    for x, xq in ((Fraction(1, 3), Fraction(0)), (Fraction(7), Fraction(1, 8))):
        assert _err_at(r.err, x, xq) == _err_at(r0.err, x, xq)
    rep = check_soundness(e, r, trials=200, seed=42, cfg=CFG)
    assert rep.ok and rep.passes == 200


def test_weaken_at_a_function_family_joins_pointwise():
    r0 = compile_program(parse("(lam (x Real) (*r x 1/3))"), OPTS)
    target = parse("(lam (x Real) (lam (x_q ErrReal) (+q x_q (err 1/1))))")
    r = weaken(r0, target, OPTS)
    # both errors are literal lambdas, so their bodies are joined in place
    assert to_source(r.err) == (
        "(lam (x Real) (lam (x_q ErrReal) (maxq "
        "(*err x x_q 1/3 (err 1/54043195528445952)) (+q x_q (err 1/1)))))")
    assert infer_type(TyCtx(), r.err) == err_ty(r.family)
    for x, xq in ((Fraction(1, 3), Fraction(0)), (Fraction(7), None),
                  (Fraction(-2), Fraction(1, 2))):
        want = _err_at(target, x, xq)
        assert _err_at(r.err, x, xq) == want


def test_weaken_at_a_nat_function_family_joins_with_truncated_minus():
    r0 = compile_program(parse("(lam (n Nat) (+n n 2))"), OPTS)
    target = parse("(lam (n Nat) (lam (n_q Nat) (-n 3 n)))")
    r = weaken(r0, target, OPTS)
    assert infer_type(TyCtx(), r.err) == err_ty(r.family)
    for n, nq in ((0, 0), (1, 5), (7, 2)):
        q1 = App(App(r0.err, NatLit(n)), NatLit(nq))
        q2 = App(App(target, NatLit(n)), NatLit(nq))
        got = eval_error(App(App(r.err, NatLit(n)), NatLit(nq)), cfg=CFG)
        assert got.value == max(eval_error(q1, cfg=CFG).value,
                                eval_error(q2, cfg=CFG).value)


def test_weaken_at_a_polymorphic_family_is_refused():
    src = "(tlam X (lam (x X) x))"
    target = parse("(tlam X (tlam X_q (lam (z0 X_q) (lam (zp (-> X_q (-> X_q "
                   "X_q))) (lam (x X) (lam (xq X_q) xq))))))")
    with pytest.raises(Unsupported):
        compile_program(parse(src), CompileOpts(weaken_to=target, cfg=CFG))


def test_argument_of_universal_type_is_refused():
    # no family describes a universal type under an arrow's domain
    src = ("(app (lam (f (forall X (-> X X))) (app (tyapp f Real) 1/1)) "
           "(tlam X (lam (x X) x)))")
    with pytest.raises(Unsupported, match="forall X"):
        compile_program(parse(src), CompileOpts(cfg=CFG))


def test_maxq_evaluates_and_folds():
    half, inf = ErrLit(Fraction(1, 2)), ErrLit(None)
    v = eval_error(parse("(maxq (err 1/2) (err 1/3))"), cfg=CFG)
    assert v == VErr.point(Fraction(1, 2))
    assert eval_error(Builtin("maxq", (half, inf)), cfg=CFG).is_infinite
    assert fold_err(Builtin("maxq", (half, ErrLit(Fraction(1, 3))))) == half
    assert fold_err(Builtin("maxq", (inf, half))) == inf
    x = Var("x")
    assert fold_err(Builtin("maxq", (ErrLit(Fraction(0)), x))) is x


# -- global properties ----------------------------------------------------------------

def _corpus_results(corpus_dir):
    for path in sorted(Path(corpus_dir).glob("*.ax")):
        e = parse(path.read_text())
        opts = load_sidecar_opts(path, OPTS)
        yield path.name, e, compile_program(e, opts)


def test_type_preservation_across_corpus(corpus_dir):
    for name, e, r in _corpus_results(corpus_dir):
        assert infer_type(TyCtx(), r.approx) == approx_ty(r.family), name
        assert infer_type(TyCtx(), r.err) == err_ty(r.family), name


def test_compile_determinism(corpus_dir):
    for name, e, r1 in _corpus_results(corpus_dir):
        r2 = compile_program(e, load_sidecar_opts(
            Path(corpus_dir) / name, OPTS))
        assert r1.approx == r2.approx, name
        assert r1.err == r2.err, name
        assert r1.derivation_json() == r2.derivation_json(), name


def test_derivation_json_rule_names(corpus_dir):
    allowed = {"A-Weak", "A-Var", "A-Lam", "A-App", "A-TLam", "A-TApp",
               "A-Fix", "A-If", "R-Lit", "R-Op", "R-SinSubst", "R-Perforate"}
    def rules(doc):
        yield doc["rule"]
        for p in doc["premises"]:
            yield from rules(p)
    seen = set()
    for name, e, r in _corpus_results(corpus_dir):
        doc = json.loads(r.derivation_json())["derivation"]
        for rule in rules(doc):
            assert rule in allowed, (name, rule)
            seen.add(rule)
    assert seen == allowed  # the corpus exercises every rule


def test_no_compile_time_side_condition_rests_on_samples(corpus_dir):
    def walk(d):
        yield d
        for p in d.premises:
            yield from walk(p)
    for name, e, r in _corpus_results(corpus_dir):
        for d in walk(r.derivation):
            for sc in d.side_conditions:
                assert not sc.verdict.on_samples, \
                    (name, d.rule, sc.description)


def test_compilation_samples_nothing(corpus_dir, monkeypatch):
    def sampled(*args):
        raise AssertionError("compilation sampled an input")
    # every binding of the samplers, in their modules and any importer's
    samplers = (sample_member_triple, trial_rng)
    for mod in [m for n, m in sys.modules.items() if n.startswith("approxc")]:
        for attr, val in list(vars(mod).items()):
            if any(val is f for f in samplers):
                monkeypatch.setattr(mod, attr, sampled)
    weakened = 0
    for name, e, r in _corpus_results(corpus_dir):
        if isinstance(r.family, Pi):
            target = weaken_err_expr(r.family, r.err, Fraction(1, 1000))
            opts = load_sidecar_opts(Path(corpus_dir) / name, OPTS)
            w = compile_program(e, dataclasses.replace(opts, weaken_to=target))
            assert w.derivation.rule == "A-Weak", name
            weakened += 1
    assert weakened >= 10


def test_no_rule_for_unregistered_transform():
    with pytest.raises(NoRuleApplies):
        compile_program(parse("(absr 1/2)"), OPTS)


def test_compile_rejects_ill_typed_program():
    with pytest.raises(TypeMismatch):
        compile_expr(ApproxCtx(), parse("(+r 1/2 7)"), FL, OPTS)


def test_compile_open_term_under_context():
    from approxc.families import ValTriple
    ctx = ApproxCtx().extend(ValTriple("y", "y_a", "y_q", FL))
    r = compile_expr(ctx, parse("(+r y y)"), FL, OPTS)
    assert to_source(r.approx) == "(+f y_a y_a)"
    assert "y_q" in to_source(r.err) and "y_a" not in to_source(r.err)


def test_perforate_outside_compile_flow():
    from approxc.syntax import RedSeq
    e = parse("(redseq +r 8 (lam (i Nat) (nat2real i)))")
    assert isinstance(e, RedSeq)
    r = compile_program(e, dataclasses.replace(OPTS, perforation={"L0": 2}))
    assert eval_approx(r.approx, cfg=CFG).value == 24.0


def test_site_labels_preorder():
    src = ("(app (lam (x Real) (+r (redseq +r 4 (lam (i Nat) (nat2real i))) x)) "
           "(redseq +r 2 (lam (i Nat) (nat2real i))))")
    sites = label_sites(parse(src))
    assert [s[0] for s in sites] == ["L0", "L1"]
    # the function body site precedes the argument site in pre-order
    assert "4" in sites[0][1] and "2" in sites[1][1]


def _sites(d):
    """The site labels in a derivation, in pre-order."""
    own = [d.site] if d.site is not None else []
    return own + [s for p in d.premises for s in _sites(p)]


def test_site_labels_number_compiled_reductions():
    # each compiled reduction carries the label label_sites gives its
    # place, also where one node object stands at two places
    e = parse("(+r (redseq +r 4 (lam (i Nat) (nat2real i))) "
              "(redseq +r 6 (lam (i Nat) (nat2real i))))")
    twice = Builtin("+r", (e.args[0], e.args[0]))
    for prog, counts in ((e, [4, 3]), (twice, [4, 2])):
        r = compile_program(prog, dataclasses.replace(OPTS, perforation={"L1": 2}))
        assert _sites(r.derivation) == ["L0", "L1"]
        # only the second float loop is perforated, to ceil(n/2) steps
        assert [a.count.value for a in r.approx.args] == counts


# -- the fold cache ---------------------------------------------------------------

def _plain(e):
    return type(e) in (Var, NatLit, RealLit, ErrLit, BoolLit, FloatLit)


def _fold_err_reference(e):
    """The constant folder before each node's folded form was cached on it:
    a plain rebuilding walk, kept as the reference."""
    e = map_children(e, _fold_err_reference)
    if type(e) is If and isinstance(e.cond, BoolLit):
        return e.then_e if e.cond.value else e.else_e
    if type(e) is Builtin and len(e.args) == 2:
        a, b = e.args
        if e.op == "leqn" and isinstance(a, NatLit) and isinstance(b, NatLit):
            return BoolLit(a.value <= b.value)
        if e.op == "+n":
            if isinstance(a, NatLit) and isinstance(b, NatLit):
                return NatLit(a.value + b.value)
            if isinstance(a, NatLit) and a.value == 0:
                return b
            if isinstance(b, NatLit) and b.value == 0:
                return a
        if e.op == "*n":
            if isinstance(a, NatLit) and isinstance(b, NatLit):
                return NatLit(a.value * b.value)
            # 0 * b drops b only where b is a variable or a literal
            if (isinstance(a, NatLit) and a.value == 0 and _plain(b)) or \
               (isinstance(b, NatLit) and b.value == 0 and _plain(a)):
                return NatLit(0)
            if isinstance(a, NatLit) and a.value == 1:
                return b
            if isinstance(b, NatLit) and b.value == 1:
                return a
        if e.op == "+q":
            if isinstance(a, ErrLit) and isinstance(b, ErrLit):
                if a.value is None or b.value is None:
                    return ErrLit(None)
                return ErrLit(a.value + b.value)
            if isinstance(a, ErrLit) and a.value == 0:
                return b
            if isinstance(b, ErrLit) and b.value == 0:
                return a
        if e.op == "maxq":
            if isinstance(a, ErrLit) and isinstance(b, ErrLit):
                if a.value is None or b.value is None:
                    return ErrLit(None)
                return ErrLit(max(a.value, b.value))
            if isinstance(a, ErrLit) and a.value == 0:
                return b
            if isinstance(b, ErrLit) and b.value == 0:
                return a
        if e.op == "*q":
            if isinstance(a, ErrLit) and a.value == 1:
                return b
    return e


@functools.cache
def _corpus_terms():
    """Every corpus program and the error it compiles to."""
    out = []
    for path in sorted((Path(__file__).resolve().parents[1] / "corpus")
                       .glob("*.ax")):
        e = parse(path.read_text())
        out.append(e)
        try:
            out.append(compile_program(e, load_sidecar_opts(path, OPTS)).err)
        except CompileError:
            pass
    return out


def _compiled_err(case):
    e, opts = case
    try:
        return compile_program(e, opts).err
    except CompileError:
        return e


def _unfolded(e, rng):
    """A fresh copy of e, with no folded form cached on any node, in which
    some nodes are wrapped in forms the folder removes or keeps, and some
    subtrees are shared."""
    c = map_children(e, lambda s: _unfolded(s, rng))
    if c is e:
        c = dataclasses.replace(e)
    n = NatLit(rng.randrange(3))
    q = ErrLit(None if rng.random() < 0.2 else Fraction(rng.randrange(3), 2))
    return rng.choice([
        c, c, c, c, c, c,
        Builtin("+q", (ErrLit(Fraction(0)), c)),
        Builtin("+q", (c, Builtin("+q", (q, ErrLit(Fraction(1)))))),
        Builtin("*q", (ErrLit(Fraction(1)), c)),
        Builtin("*q", (q, c)),
        Builtin("maxq", (ErrLit(Fraction(0)), c)),
        Builtin("maxq", (c, Builtin("maxq", (q, ErrLit(Fraction(1)))))),
        Builtin("+n", (c, Builtin("+n", (n, NatLit(0))))),
        Builtin("*n", (Builtin("*n", (NatLit(1), n)), c)),
        If(BoolLit(rng.random() < 0.5), c, n),
        If(Builtin("leqn", (n, NatLit(1))), c, c),  # c is shared
    ])


@given(st.one_of(st.deferred(lambda: st.sampled_from(_corpus_terms())),
                 programs().map(lambda case: case[0]),
                 programs().map(_compiled_err)),
       st.randoms(use_true_random=False))
def test_cached_fold_matches_the_uncached_reference(src, rng):
    e = _unfolded(src, rng)
    want = _fold_err_reference(e)
    got = fold_err(e)
    assert got == want, to_source(e)
    assert fold_err(e) is got and fold_err(got) is got
    # a node that folds to itself is kept, not rebuilt
    assert fold_err(want) is want


def _plus_chain(depth):
    s = "x"
    for _ in range(depth):
        s = f"(+r x {s})"
    return parse(f"(lam (x Real) {s})")


def test_fold_work_grows_linearly_with_nesting(monkeypatch):
    walked = []

    def counting(e, f):
        walked.append(e)
        return map_children(e, f)

    monkeypatch.setattr(approxc.compiler, "map_children", counting)
    counts = []
    for depth in (100, 200, 400):
        walked.clear()
        compile_program(_plus_chain(depth), OPTS)
        counts.append(len(walked))
    # folding each error node once is linear in the depth; refolding every
    # premise's error, as a rebuilding walk does, grows at least fourfold
    assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1], counts


class _CountingMemo(dict):
    """A to_source memo that lists the id of every node it formats."""

    def __init__(self):
        super().__init__()
        self.formatted = []

    def __setitem__(self, key, text):
        self.formatted.append(key)
        super().__setitem__(key, text)


def _derivation_nodes(d, seen):
    """Every node of every expression in a derivation, by id."""
    for e in (d.exact, d.approx, d.err):
        stack = [e]
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen[id(t)] = t
                stack.extend(children(t))
    for p in d.premises:
        _derivation_nodes(p, seen)
    return seen


def test_printing_work_grows_linearly_with_nesting():
    counts = []
    for depth in (50, 100, 200):
        r = compile_program(_plus_chain(depth), OPTS)
        memo = _CountingMemo()
        r.derivation_json(memo)
        # each distinct node but a variable is formatted once; printing
        # every premise's expressions afresh formats O(depth^3) nodes
        distinct = [t for t in _derivation_nodes(r.derivation, {}).values()
                    if type(t) is not Var]
        assert sorted(memo.formatted) == sorted(map(id, distinct)), depth
        counts.append(len(memo.formatted))
    assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1], counts


def test_deep_chain_compiles_quickly():
    e = _plus_chain(300)
    t0 = time.perf_counter()
    compile_program(e, OPTS)
    assert time.perf_counter() - t0 < 1.0


# -- one typing pass -----------------------------------------------------------------

@contextlib.contextmanager
def _typing_visits():
    """A list of every node infer_type visits while the context is open."""
    visits = []
    typed = approxc.typecheck.infer_type

    def counting(ctx, e, types=None):
        visits.append(e)
        return typed(ctx, e, types)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approxc.typecheck, "infer_type", counting)
        mp.setattr(approxc.compiler, "infer_type", counting)
        yield visits


def _nodes(e):
    stack, out = [e], []
    while stack:
        t = stack.pop()
        out.append(t)
        stack.extend(children(t))
    return out


def test_compile_types_each_node_once(corpus_dir):
    for path in sorted(corpus_dir.glob("*.ax")):
        e = parse(path.read_text())
        opts = load_sidecar_opts(path, OPTS)
        with _typing_visits() as visits:
            compile_program(e, opts)
        # only a weakening target, typed against the family's error type,
        # adds nodes of its own
        want = _nodes(e) + (_nodes(opts.weaken_to) if opts.weaken_to else [])
        assert sorted(map(id, visits)) == sorted(map(id, want)), path.name


def _app_chain(depth):
    t = Var("x")
    for _ in range(depth):
        t = App(Lam("y", REAL, Builtin("+r", (Var("y"), Var("x")))), t)
    return Lam("x", REAL, t)


def test_typing_work_grows_linearly_with_application_nesting():
    counts = []
    for depth in (100, 200, 400):
        with _typing_visits() as visits:
            compile_program(_app_chain(depth), OPTS)
        counts.append(len(visits))
    # typing each argument's subtree again at its application, as the
    # compiler once did, grows fourfold
    assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1], counts


_DEEPEST = """
import json
from approxc.compiler import NestingTooDeep, compile_program
from approxc.syntax import REAL, App, Builtin, Lam, Var

def plus_chain(n):
    t = Var("x")
    for _ in range(n):
        t = Builtin("+r", (Var("x"), t))
    return Lam("x", REAL, t)

def app_chain(n):
    t = Var("x")
    for _ in range(n):
        t = App(Lam("y", REAL, Builtin("+r", (Var("y"), Var("x")))), t)
    return Lam("x", REAL, t)

def deepest(chain):
    lo, hi = 1, 2000
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        try:
            compile_program(chain(mid))
            lo = mid
        except NestingTooDeep:
            hi = mid
    return lo

print(json.dumps([deepest(plus_chain), deepest(app_chain)]))
"""


def test_deepest_compilable_nesting_does_not_fall():
    # measured from a fresh interpreter, as a script or the CLI runs; the
    # depth does not depend on the caller's own stack (see the next test)
    out = subprocess.run([sys.executable, "-c", _DEEPEST], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    plus, app = json.loads(out.stdout)
    assert plus >= 740 and app >= 740, (plus, app)


def _plus_chain(n):
    t = Var("x")
    for _ in range(n):
        t = Builtin("+r", (Var("x"), t))
    return Lam("x", REAL, t)


def _deepest_nesting(run, too_deep):
    """The largest n below 3000 for which run(n) does not raise too_deep,
    by bisection."""
    lo, hi = 0, 3000
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        try:
            run(mid)
            lo = mid
        except too_deep:
            hi = mid
    return lo


def test_nesting_limits_do_not_depend_on_the_caller():
    # parsing and compiling may use a fixed number of host frames above
    # their caller's depth, so 300 more frames under the caller leave the
    # deepest right-nested +r chain that parses, and that compiles, as is
    def limits(printed=False):
        parsed = _deepest_nesting(
            lambda n: parse("(lam (x Real) " + "(+r x " * n + "x" + ")" * n + ")"),
            ParseError)
        compiled = _deepest_nesting(
            lambda n: compile_program(_plus_chain(n)), NestingTooDeep)
        if printed:
            # printing takes one frame per level, as parsing does, so
            # whatever parses or compiles also prints under the same guard.
            # The error program nests one level deeper than the float one
            # through the same node kinds (lam, builtin), but its memo
            # would keep about 470 MB of text at this depth
            r, memo = compile_program(_plus_chain(compiled)), {}
            nesting_guarded(lambda: [to_source(_plus_chain(parsed)),
                                     to_source(r.approx, memo)])
        return parsed, compiled

    def nested(k):
        return limits(printed=True) if k == 0 else nested(k - 1)

    here, deeper = limits(), nested(300)
    assert here == deeper, (here, deeper)
    assert here[0] >= 1400 and here[1] >= 700, here


# -- leaf saturation ---------------------------------------------------------------

@contextlib.contextmanager
def _refusing():
    """A context in which no builtin leaf saturates: each keeps the redex
    of its error lambda applied to every actual."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approxc.compiler, "_saturate", lambda leaf, actuals: None)
        yield


def _compile_both(e, opts):
    """The errors compiled with and without leaf saturation, or the types
    of the errors both compilations raise."""
    def run():
        try:
            return compile_program(e, opts)
        except CompileError as ex:
            return type(ex)
    saturated = run()
    with _refusing():
        redex = run()
    return saturated, redex


def _bounds(e, result, cfg, trials=3):
    """Error bounds of each instantiation at inputs sampled down its
    function spine."""
    out = []
    for tag, _, _, q, fam in _instantiations(result, e):
        for t in range(trials):
            rng = trial_rng(7, t)
            applied, f = q, fam
            while isinstance(f, Pi):
                x, _, xq = sample_member_triple(f.fam, rng)
                applied, f = App(App(applied, x), xq), f.body
            try:
                out.append((tag, bound_of(eval_error(applied, cfg=cfg))))
            except OracleInconclusive:
                out.append((tag, "inconclusive"))
    return out


def _always_saturable_leaves():
    # each of these leaves' bodies uses every parameter once, in order
    return [*(approxc.compiler._binary_real_leaf(op)
              for op in ("+r", "-r", "*r", "/r")),
            approxc.compiler._sin_leaf(False), approxc.compiler._nat2real_leaf()]


def _leaf_redexes(e, leaves=None):
    """The applications in e whose function is a builtin leaf's error."""
    if leaves is None:
        leaves = _always_saturable_leaves() + [
            approxc.compiler._sin_leaf(True),
            *(approxc.compiler._nat_op_leaf(op) for op in ("+n", "-n", "*n"))]
    ids = {id(leaf.err) for leaf in leaves}
    stack, out = [e], []
    while stack:
        t = stack.pop()
        if type(t) is App and id(t.fn) in ids:
            out.append(t)
        stack.extend(children(t))
    return out


@pytest.mark.parametrize("path", sorted((REPO / "corpus").glob("*.ax")),
                         ids=lambda p: p.name)
def test_saturated_corpus_errors_bound_like_their_redexes(path):
    e = parse(path.read_text())
    opts = load_sidecar_opts(path, OPTS)
    saturated, redex = _compile_both(e, opts)
    if isinstance(saturated, type):
        assert saturated is redex
        return
    assert to_source(saturated.approx) == to_source(redex.approx)
    assert _bounds(e, saturated, CFG) == _bounds(e, redex, CFG), path.name


@given(programs())
def test_saturated_random_errors_bound_like_their_redexes(case):
    e, opts = case
    saturated, redex = _compile_both(e, opts)
    if isinstance(saturated, type):
        assert saturated is redex
        return
    assert _bounds(e, saturated, CFG, trials=2) == \
        _bounds(e, redex, CFG, trials=2), to_source(e)
    assert _leaf_redexes(saturated.err, _always_saturable_leaves()) == []


def test_fix_sum_error_applies_no_leaf_lambda():
    r = compile_program(parse((REPO / "corpus" / "fix_sum.ax").read_text()), OPTS)
    assert _leaf_redexes(r.err) == []
    assert "(+err (nat2real n) (n2rerr n n_q) (app rec (-n n 1)) " \
        "(app (app rec_q (-n n 1)) n_q))" in to_source(r.err)


@pytest.mark.parametrize("src, opts", [
    # a partial application passed to a higher-order function
    ("(app (lam (f (-> Real Real)) (app f 2/1)) (+r 1/1))", OPTS),
    # *n with an application as its first operand: its error nq occurs
    # twice in the *n body, and it is no value
    ("(*n (app (lam (y Nat) y) 3) 2)", OPTS),
    # *n's body uses me before ne: two operands that are no values would
    # be evaluated out of order
    ("(lam (n Nat) (*n (-n n 1) (-n n 2)))", OPTS),
    # the substituted sine repeats xe, here no value
    ("(lam (x Real) (sinr (app (lam (y Real) y) x)))",
     CompileOpts(enable_sin_subst=True, cfg=CFG)),
    # +n's body does not use the exact operand ne, an application
    ("(+n (app (lam (y Nat) y) 3) 2)", OPTS),
])
def test_unsaturable_leaves_keep_their_redex(src, opts):
    e = parse(src)
    saturated, redex = _compile_both(e, opts)
    assert _leaf_redexes(saturated.err) != []
    assert _bounds(e, saturated, CFG) == _bounds(e, redex, CFG)


@pytest.mark.parametrize("src, opts, err", [
    ("(lam (x Real) (sinr x))", CompileOpts(enable_sin_subst=True, cfg=CFG),
     "(lam (x Real) (lam (x_q ErrReal) (+q x_q (dr x (sinr x)))))"),
    # +n's unused exact operands are values, and *n's repeated nq is 0
    ("(lam (n Nat) (+n n 2))", OPTS,
     "(lam (n Nat) (lam (n_q Nat) n_q))"),
    ("(lam (n Nat) (*n 2 (app (lam (y Nat) y) n)))", OPTS,
     "(lam (n Nat) (lam (n_q Nat) (+n (*n 0 (app (lam (y Nat) y) n)) "
     "(*n (app (app (lam (y Nat) (lam (y_q Nat) y_q)) n) n_q) 2))))"),
])
def test_saturable_leaves_substitute_their_body(src, opts, err):
    e = parse(src)
    saturated, redex = _compile_both(e, opts)
    assert to_source(saturated.err) == err
    assert _leaf_redexes(saturated.err) == []
    assert _bounds(e, saturated, CFG) == _bounds(e, redex, CFG)


def test_saturation_substitutes_user_names_of_leaf_parameters_once():
    e = parse("(lam (xq Real) (lam (yq Real) (lam (xe Real) (lam (ye Real) "
              "(+r (*r xq ye) (-r yq xe))))))")
    saturated, redex = _compile_both(e, OPTS)
    assert to_source(saturated.err).endswith(
        "(+err (*r xq ye) (*err xq xq_q ye ye_q) (-r yq xe) "
        "(-err yq yq_q xe xe_q))))))))))")
    assert _leaf_redexes(saturated.err) == []
    assert _bounds(e, saturated, CFG, trials=6) == \
        _bounds(e, redex, CFG, trials=6)
