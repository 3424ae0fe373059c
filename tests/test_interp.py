import math
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given

from approxc import enclosure, interp
from approxc.compiler import compile_program
from approxc.enclosure import from_rational
from approxc.floats import MAXFLOAT, float_bits
from approxc.interp import (
    DIVERGED, ERR_INF, EvalConfig, OracleInconclusive, VBool, VBuiltin,
    VClosure, VErr, VFix, VFloat, VNat, VReal, VTyClosure, apply_value,
    bound_of, err_add, eval_approx, eval_error, eval_exact,
)
from approxc.parser import parse
from approxc.syntax import (
    BUILTINS, FLOAT64, NAT, App, Arrow, BoolLit, Builtin, ErrLit, Fix,
    FloatLit, If, Lam, NatLit, RealLit, RedSeq, Var, to_source,
)
from approxc.typecheck import TyCtx, infer_type
from test_random_programs import programs

CFG = EvalConfig(fuel=200_000, precision_bits=128)


def test_identity_application():
    v = eval_exact(parse("(app (lam (x Real) x) 1/3)"), cfg=CFG)
    assert isinstance(v, VReal) and v.enc.contains(Fraction(1, 3))


def test_redseq_sums_exclusive():
    v = eval_exact(parse("(redseq +r 4 (lam (i Nat) (nat2real i)))"), cfg=CFG)
    assert isinstance(v, VReal)
    assert v.enc.contains(Fraction(6))  # 0+1+2+3
    assert v.enc.width <= Fraction(1, 2**120)


def test_redseq_empty_is_zero():
    v = eval_exact(parse("(redseq +r 0 (lam (i Nat) (nat2real i)))"), cfg=CFG)
    assert isinstance(v, VReal) and v.enc.contains(Fraction(0))


def test_diverging_fix():
    v = eval_exact(parse("(app (fix (lam (f (-> Nat Nat)) f)) 3)"),
                   cfg=EvalConfig(fuel=5000))
    assert v is DIVERGED


def test_float_addition_bit_pattern():
    e = Builtin("+f", (FloatLit.of(0.1), FloatLit.of(0.2)))
    v = eval_approx(e, cfg=CFG)
    assert isinstance(v, VFloat)
    assert float_bits(v.value) == 0x3FD3333333333334


def test_float_multiplicative_identity():
    for x in (3.7, -0.0, 1e-300, MAXFLOAT):
        e = Builtin("*f", (FloatLit.of(1.0), FloatLit.of(x)))
        assert eval_approx(e, cfg=CFG).value == x


def test_float_overflow_to_infinity():
    e = Builtin("+f", (FloatLit.of(MAXFLOAT), FloatLit.of(MAXFLOAT)))
    assert eval_approx(e, cfg=CFG).value == math.inf


def test_error_monoid_identity():
    v = eval_error(parse("(+q (err 0/1) (err 1/4))"), cfg=CFG)
    assert isinstance(v, VErr) and v.lo == v.hi == Fraction(1, 4)


def test_error_infinity_absorbs():
    v = eval_error(parse("(+q inf (err 5/1))"), cfg=CFG)
    assert v.is_infinite
    assert err_add(ERR_INF, VErr.point(Fraction(0))).is_infinite


def test_error_projection():
    src = "(app (app (lam (x Real) (lam (q ErrReal) q)) 5/1) (err 1/2))"
    v = eval_error(parse(src), cfg=CFG)
    assert v.lo == Fraction(1, 2)


def test_error_distance_embeds_exact_reals():
    # x - sin x at x = 1/10 via an independent Taylor bound
    x = Fraction(1, 10)
    s = x**3 / 6 - x**5 / 120 + x**7 / 5040
    rem = x**9 / 362880
    v = eval_error(parse("(dr 1/10 (sinr 1/10))"), cfg=CFG)
    assert s - rem <= v.lo <= v.hi <= s + rem


def test_diverging_fix_applied_as_a_value():
    # the host recursion limit is divergence here too, not a traceback
    fn = eval_exact(parse("(fix (lam (f (-> Nat Nat)) f))"))
    assert apply_value(fn, [VNat(3)], EvalConfig()) is DIVERGED


def _fix_sum_bound(corpus_dir, n, n_q, cfg=EvalConfig()):
    err = compile_program(parse((corpus_dir / "fix_sum.ax").read_text())).err
    return bound_of(eval_error(App(App(err, NatLit(n)), NatLit(n_q)), cfg=cfg))


def test_fix_calls_are_evaluated_once_per_run(corpus_dir):
    # each level of fix_sum's error recursion calls the exact recursion on
    # n - 1; answered from the call table the whole bound is linear in n,
    # and re-evaluating every call exhausts this fuel
    q = _fix_sum_bound(corpus_dir, 150, 0, EvalConfig(fuel=20_000))
    assert not q.is_infinite
    assert q == _fix_sum_bound(corpus_dir, 150, 0)


def test_fix_calls_on_signed_zeros_stay_apart():
    # 0.0 == -0.0, but the call on each is its own: inf - (-inf) = inf,
    # where one answer shared between them would give inf - inf = nan
    f, x = Var("f"), Var("x")
    body = If(Builtin("leqf", (x, FloatLit.of(1.0))),
              Builtin("/f", (FloatLit.of(1.0), x)),
              Builtin("-f", (App(f, FloatLit.of(0.0)),
                             App(f, FloatLit.of(-0.0)))))
    rec = Fix(Lam("f", Arrow(FLOAT64, FLOAT64), Lam("x", FLOAT64, body)))
    assert eval_approx(App(rec, FloatLit.of(2.0)), cfg=CFG).value == math.inf


def test_fix_sum_self_loop_still_diverges(corpus_dir):
    # at (n, n_q) = (0, 1) the error recursion calls itself on the same
    # arguments forever; answering its inner calls from the table makes
    # each round cheaper, but the run must still diverge
    assert _fix_sum_bound(corpus_dir, 0, 1).is_infinite


def test_diverged_error_is_infinite_bound():
    v = eval_error(parse("(app (fix (lam (f (-> Nat ErrReal)) f)) 3)"),
                   cfg=EvalConfig(fuel=2000))
    assert v is DIVERGED
    assert bound_of(v).is_infinite


def test_fix_summation():
    src = ("(app (fix (lam (rec (-> Nat Real)) (lam (n Nat) "
           "(if (leqn n 0) 0/1 (+r (nat2real n) (app rec (-n n 1))))))) 10)")
    v = eval_exact(parse(src), cfg=CFG)
    assert v.enc.contains(Fraction(55))


def test_determinism_bitwise():
    e = Builtin("sinf", (Builtin("+f", (FloatLit.of(0.1), FloatLit.of(0.7))),))
    v1 = eval_approx(e, cfg=CFG)
    v2 = eval_approx(e, cfg=CFG)
    assert float_bits(v1.value) == float_bits(v2.value)


def test_fuel_monotonicity():
    src = "(redseq +r 6 (lam (i Nat) (nat2real i)))"
    v1 = eval_exact(parse(src), cfg=EvalConfig(fuel=200, precision_bits=64))
    assert not isinstance(v1, type(DIVERGED))
    v2 = eval_exact(parse(src), cfg=EvalConfig(fuel=10**6, precision_bits=64))
    assert v1 == v2


@pytest.mark.parametrize("kwargs", [{"fuel": 0}, {"precision_bits": 0},
                                    {"precision_bits": -5}])
def test_config_rejects_nonpositive_budgets(kwargs):
    with pytest.raises(ValueError):
        EvalConfig(**kwargs)


def test_each_precision_step_has_one_config():
    cfg = EvalConfig(fuel=5000, precision_bits=64)
    step = cfg.at_precision(256)
    assert cfg.at_precision(256) is step and cfg.at_precision(64) is not step
    assert step == EvalConfig(fuel=5000, precision_bits=256)
    # the kept steps are not fields: equality, hashing and repr ignore them
    assert cfg == EvalConfig(fuel=5000, precision_bits=64)
    assert hash(cfg) == hash(EvalConfig(fuel=5000, precision_bits=64))
    assert "_steps" not in repr(cfg)
    # a refused precision is not kept: asking again is refused again
    for p in (0, -5, 0):
        with pytest.raises(ValueError):
            cfg.at_precision(p)


def test_monotone_refinement():
    src = "(sinr (+r 1/3 1/7))"
    lo = eval_exact(parse(src), cfg=EvalConfig(fuel=1000, precision_bits=64))
    hi = eval_exact(parse(src), cfg=EvalConfig(fuel=1000, precision_bits=256))
    assert lo.enc.lo <= hi.enc.lo and hi.enc.hi <= lo.enc.hi


def test_nat_ops():
    assert eval_exact(parse("(-n 3 5)"), cfg=CFG).value == 0  # truncated
    assert eval_exact(parse("(floorK 7 2)"), cfg=CFG).value == 6
    assert eval_exact(parse("(ceilK 7 2)"), cfg=CFG).value == 8
    assert eval_exact(parse("(dn 3 8)"), cfg=CFG).value == 5


def test_n2rerr_examples():
    # exact conversion for small naturals
    v = eval_error(parse("(n2rerr 6 0)"), cfg=CFG)
    assert v.lo == v.hi == 0
    # with slack k the bound is at least k
    v = eval_error(parse("(n2rerr 6 2)"), cfg=CFG)
    assert v.lo >= 2


# 2^1024 - 2^970 is the first natural that rounds to infinity, ties to even
_NAT_OVERFLOW = 2**1024 - 2**970


@pytest.mark.parametrize("n, k, want", [
    # 2^53 + 1 ties down to 2^53; 2^53 and 2^53 + 2 are both exact
    (2**53 + 1, 0, 1),
    (2**53 + 1, 1, 1),
    (2**53 + 3, 0, 1),  # ties up to 2^53 + 4, the even neighbour
    # n + k reaches the overflow threshold: the bound is infinite
    (_NAT_OVERFLOW - 1, 1, None),
    (_NAT_OVERFLOW, 0, None),
    # just below it everything rounds to MAXFLOAT = 2^1024 - 2^971
    (_NAT_OVERFLOW - 1, 0, 2**970 - 1),
    (_NAT_OVERFLOW - 2, 1, 2**970 - 2),
])
def test_n2rerr_exact_values(n, k, want):
    v = eval_error(parse(f"(n2rerr {n} {k})"), cfg=CFG)
    assert v.lo == v.hi == want
    assert want is None or type(v.lo) is Fraction


def test_nat2float_overflow_threshold():
    def nat2float(n):
        return eval_approx(parse(f"(nat2float {n})"), cfg=CFG).value
    assert nat2float(_NAT_OVERFLOW) == math.inf
    assert nat2float(_NAT_OVERFLOW - 1) == MAXFLOAT
    assert float_bits(nat2float(2**53 + 1)) == float_bits(2.0**53)
    assert float_bits(nat2float(0)) == 0


def test_call_table_stops_growing_at_its_cap(corpus_dir, monkeypatch):
    # past the cap calls are evaluated afresh: the bound is unchanged and
    # the table never holds more than the cap
    want = _fix_sum_bound(corpus_dir, 40, 0)
    monkeypatch.setattr(interp, "_CALL_TABLE_MAX", 8)
    sizes = []
    apply = interp._Machine.apply

    def spy(m, fn, arg):
        out = apply(m, fn, arg)
        sizes.append(len(m.calls))
        return out
    monkeypatch.setattr(interp._Machine, "apply", spy)
    assert _fix_sum_bound(corpus_dir, 40, 0) == want
    assert max(sizes) == 8


def test_deepest_fix_sum_does_not_fall(corpus_dir):
    # the top-level call of a fix goes through the call table, and a
    # recursive call costs one host frame fewer than a closure call, so the
    # deepest n that converges under the default budget stays at least the
    # 413 it was when only the inner calls were memoized
    e = parse((corpus_dir / "fix_sum.ax").read_text())
    assert _deepest(lambda n: App(e, NatLit(n)), EvalConfig()) >= 413


def test_closed_fix_is_one_value_per_node(corpus_dir):
    # a closed lambda evaluates to the same closure in every run, so the
    # fix_sum recursion that the error program embeds keys the same table
    # entries as the exact program
    e = parse((corpus_dir / "fix_sum.ax").read_text())
    err = compile_program(e).err
    assert err.expr.arg is e
    assert eval_exact(e, cfg=CFG).fn is eval_exact(e, cfg=CFG).fn


def test_fix_results_are_shared_through_one_table(corpus_dir):
    # the error program at n fills the table with the exact recursion's
    # calls up to n - 1; the exact program at n then unrolls one level
    e = parse((corpus_dir / "fix_sum.ax").read_text())
    err = compile_program(e).err
    calls = {}
    q = eval_error(App(App(err, NatLit(30)), NatLit(0)), cfg=CFG, calls=calls)
    assert not bound_of(q).is_infinite
    fuel = EvalConfig(fuel=20, precision_bits=128)
    assert eval_exact(App(e, NatLit(30)), cfg=fuel) is DIVERGED
    v = eval_exact(App(e, NatLit(30)), cfg=fuel, calls=calls)
    assert v == eval_exact(App(e, NatLit(30)), cfg=CFG)


# -- code staged on the nodes ---------------------------------------------

def test_staged_code_leaves_nodes_unchanged(corpus_dir):
    src = (corpus_dir / "fix_sum.ax").read_text()
    e, fresh = parse(src), parse(src)
    assert eval_exact(App(e, NatLit(5)), cfg=CFG).enc.contains(Fraction(15))
    assert interp._CODE in e.__dict__
    assert e == fresh and hash(e) == hash(fresh)
    assert repr(e) == repr(fresh) and to_source(e) == to_source(fresh)


def test_real_literal_reads_the_precision_of_each_run():
    lit = RealLit(Fraction(1, 3))
    at_128 = eval_exact(lit, cfg=EvalConfig(precision_bits=128))
    at_256 = eval_exact(lit, cfg=EvalConfig(precision_bits=256))
    assert at_256 == VReal(from_rational(Fraction(1, 3), 256))
    assert at_256.enc.width < at_128.enc.width


def _outcome(e):
    try:
        return eval_exact(e, cfg=CFG)
    except OracleInconclusive as ex:
        return str(ex)


@given(programs())
def test_staged_code_is_reused_faithfully(case):
    e, _ = case
    if isinstance(e, Lam):
        e = App(e, RealLit(Fraction(2, 3)))
    first = _outcome(e)
    assert interp._CODE in e.__dict__
    assert _outcome(e) == first == _outcome(parse(to_source(e)))


def test_shared_subtrees_are_staged_once():
    # 2^60 paths through 61 distinct nodes: staging is linear in the
    # nodes, and evaluation runs out of fuel as it always did
    e = RealLit(Fraction(1, 3))
    for _ in range(60):
        e = Builtin("+r", (e, e))
    assert eval_exact(e, cfg=EvalConfig(fuel=1000)) is DIVERGED


# -- host stack depth -----------------------------------------------------

def _chain(wrap, leaf):
    def nest(depth):
        e = leaf
        for _ in range(depth):
            e = wrap(e)
        return e
    return nest


def _deepest(nest, cfg=CFG):
    """The deepest nesting that evaluates before the host stack counts as
    divergence, by bisection."""
    lo, hi = 1, 3000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if eval_exact(nest(mid), cfg=cfg) is DIVERGED:
            hi = mid - 1
        else:
            lo = mid
    return lo


def test_host_stack_frames_per_nesting_level():
    # a level of an if chain, of nested arguments or of a builtin operand
    # is one host frame; a level that nests through a call (let body,
    # redseq operand) is two, so those chains count as divergence at half
    # the depth
    one = NatLit(1)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # below the evaluator's own limit
    try:
        depth_if = _deepest(_chain(lambda e: If(BoolLit(False), one, e), one))
        one_frame = {
            "argument": _chain(lambda e: App(Lam("x", NAT, Var("x")), e), one),
            "builtin": _chain(lambda e: Builtin("+n", (e, one)), one),
            "unary builtin": _chain(lambda e: Builtin("absr", (e,)),
                                    Builtin("nat2real", (one,))),
        }
        two_frames = {
            "let": _chain(lambda e: App(Lam("x", NAT, e), one), Var("x")),
            "redseq": _chain(
                lambda e: RedSeq(Builtin("+n"), e, Lam("i", NAT, one)), one),
        }
        ones = {k: _deepest(nest) for k, nest in one_frame.items()}
        twos = {k: _deepest(nest) for k, nest in two_frames.items()}
    finally:
        sys.setrecursionlimit(old)
    for kind, depth in ones.items():
        assert abs(depth - depth_if) <= 32, (kind, depth, depth_if)
    for kind, depth in twos.items():
        assert abs(2 * depth - depth_if) <= 32, (kind, depth, depth_if)


def test_deep_builtin_chain_evaluates():
    one = NatLit(1)
    e = _chain(lambda e: Builtin("+n", (e, one)), one)(2000)
    assert eval_exact(e, cfg=CFG) == VNat(2001)


def _in_thread(run):
    # a fresh thread with room for the evaluator's frames on the C stack
    # too, where an interpreter keeps Python frames there
    out = []
    old = threading.stack_size(64 << 20)
    try:
        t = threading.Thread(target=lambda: out.append(run()))
        t.start()
        t.join()
    finally:
        threading.stack_size(old)
    return out[0]


def test_deepest_fix_sum_does_not_depend_on_the_caller(corpus_dir):
    e = parse((corpus_dir / "fix_sum.ax").read_text())

    def deepest():
        return _deepest(lambda n: App(e, NatLit(n)), EvalConfig())

    def nested(k):
        return deepest() if k == 0 else nested(k - 1)

    assert _in_thread(lambda: nested(200)) == _in_thread(deepest)


# -- builtin rules ----------------------------------------------------------

def _r(q):
    return RealLit(Fraction(q))


def _q(q):
    return ErrLit(None if q is None else Fraction(q))


_F = FloatLit.of
# operand lists per op, typed ones and ones a rule refuses
_RULE_CASES = [
    ("+r", (_r("1/3"), _r("2/7"))), ("+r", (NatLit(1), _r(1))),
    ("+r", (_r(1), NatLit(1))), ("-r", (_r("1/3"), _r("2/7"))),
    ("*r", (_r("-1/3"), _r("2/7"))), ("/r", (_r("1/3"), _r("2/7"))),
    ("/r", (_r(1), _r(0))), ("dr", (_r("1/3"), _r("1/5"))),
    ("dr", (_r(1), FloatLit.of(1.0))), ("sinr", (_r("1/2"),)),
    ("sinr", (NatLit(2),)), ("absr", (_r("-1/3"),)),
    ("leqr", (_r("1/5"), _r("1/3"))), ("leqr", (_r("1/3"), _r("1/3"))),
    ("nat2real", (NatLit(5),)),
    ("+f", (_F(0.1), _F(0.2))), ("+f", (_F(0.1), NatLit(2))),
    ("-f", (_F(0.1), _F(0.2))), ("*f", (_F(0.1), _F(3.0))),
    ("/f", (_F(1.0), _F(0.0))), ("/f", (_F(-1.0), _F(3.0))),
    ("sinf", (_F(0.5),)), ("leqf", (_F(0.5), _F(-0.0))),
    ("nat2float", (NatLit(2 ** 53 + 1),)), ("nat2float", (NatLit(2 ** 1100),)),
    ("+n", (NatLit(3), NatLit(5))), ("-n", (NatLit(3), NatLit(5))),
    ("*n", (NatLit(3), NatLit(5))), ("dn", (NatLit(3), NatLit(5))),
    ("leqn", (NatLit(5), NatLit(3))), ("floorK", (NatLit(7), NatLit(3))),
    ("floorK", (NatLit(7), NatLit(0))), ("ceilK", (NatLit(7), NatLit(3))),
    ("ceilK", (NatLit(7), NatLit(0))), ("nat2err", (NatLit(4),)),
    ("+q", (_q("1/2"), NatLit(3))), ("+q", (_q(None), _q(1))),
    ("maxq", (NatLit(1), _q("1/2"))), ("*q", (_q("1/2"), _q("1/3"))),
    ("*q", (_q(0), _q(None))), ("+q", (_F(1.0), _q(1))),
    ("+err", (_r("1/3"), _q("1/1024"), _r("2/3"), _q(0))),
    ("-err", (_r("1/3"), NatLit(1), _r("2/3"), _q(0))),
    ("*err", (_r(10 ** 300), _q(0), _r(10 ** 300), _q(0))),
    ("/err", (_r(1), _q(0), _r(0), _q(0))),
    ("/err", (_r("1/3"), _q(0), _r(3), _q("1/8"))),
    ("sinerr", (_r("1/2"), _q("1/8"))), ("sinerr", (_r("1/2"), _q(None))),
    ("sinerr", (_r("1/2"), _q(3))),
    ("n2rerr", (NatLit(2 ** 53 + 1), NatLit(1))),
    ("n2rerr", (NatLit(2 ** 1100), NatLit(0))),
]


def _rule_outcome(run):
    m = interp._Machine(CFG)
    try:
        v = run(m)
    except interp.EvalError as ex:
        v = (type(ex), str(ex))
    return v, CFG.fuel - m.fuel


def test_every_builtin_has_one_rule():
    assert set(interp._DELTA) == set(BUILTINS)
    assert {op for op, _ in _RULE_CASES} == set(BUILTINS)


@pytest.mark.parametrize("op,args", _RULE_CASES)
def test_staged_and_curried_builtins_agree(op, args):
    def curried(m):
        f = interp._code(Builtin(op, ()))(m, {})
        for a in args:
            f = m.apply(f, interp._code(a)(m, {}))
        return f

    staged, staged_fuel = _rule_outcome(
        lambda m: interp._code(Builtin(op, args))(m, {}))
    value, fuel = _rule_outcome(curried)
    assert staged == value
    # one tick for the rule, and the curried path one per application
    assert staged_fuel == 1 and fuel == 1 + len(args)


@pytest.mark.parametrize("op,args", [
    ("leqr", (NatLit(1), NatLit(2))), ("leqr", (_r(1), _F(2.0))),
    ("sinf", (NatLit(1),)), ("sinf", (_r(1),)),
    ("leqf", (NatLit(1), NatLit(2))), ("leqf", (_F(1.0), _r(2))),
    # the Nat rules, whose values a host operator would take as they come
    ("+n", (_F(0.5), NatLit(2))), ("-n", (NatLit(3), _r(1))),
    ("*n", (NatLit(2), _F(2.0))), ("dn", (_r(1), NatLit(2))),
    ("leqn", (_F(1.0), NatLit(2))), ("floorK", (_F(7.0), NatLit(2))),
    ("ceilK", (NatLit(7), _F(2.0))), ("nat2real", (_F(2.0),)),
    ("nat2float", (_r(2),)), ("nat2err", (_F(0.5),)),
    ("n2rerr", (NatLit(3), _F(1.0))),
])
def test_oracle_rules_refuse_ill_typed_operands(op, args):
    with pytest.raises(interp.EvalError, match=f"{re.escape(op)} applied to"):
        eval_exact(Builtin(op, args), cfg=CFG)


def test_a_repeated_sine_is_taken_once_at_the_same_fuel(monkeypatch):
    e = parse("(+r (sinr 1/3) (app (lam (y Real) (sinr y)) 1/3))")
    enclose_op = enclosure.enclose_op

    def run():
        sines = []

        def spy(op, *args, **kwargs):
            sines.append(op == "sinr")
            return enclose_op(op, *args, **kwargs)
        monkeypatch.setattr(enclosure, "enclose_op", spy)
        m = interp._Machine(CFG)
        return interp._code(e)(m, {}), CFG.fuel - m.fuel, sum(sines)

    v, fuel, sines = run()
    monkeypatch.setattr(interp, "_CALL_TABLE_MAX", 0)
    assert run() == (v, fuel, 2) and sines == 1


def test_a_table_kept_across_precisions_answers_each_with_its_own_sine():
    e, calls = parse("(sinr 1/3)"), {}
    coarse = eval_exact(e, cfg=CFG.at_precision(64), calls=calls)
    fine = eval_exact(e, cfg=CFG.at_precision(256), calls=calls)
    assert fine == eval_exact(e, cfg=CFG.at_precision(256))
    assert fine.enc.width < coarse.enc.width


def test_staged_builtins_reach_kernels_through_module_globals(monkeypatch):
    # a tracer rebinds the kernels by name; a node staged before the
    # rebinding must call the new binding
    e = parse("(+q (+err 1/3 (err 0/1) 1/7 (err 0/1)) "
              "(dr (sinr 1/3) (nat2real (ceilK 3 2))))")
    a = Builtin("sinf", (FloatLit.of(0.5),))
    want, want_a = eval_error(e, cfg=CFG), eval_approx(a, cfg=CFG)
    seen = []

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *xs, **kw: (
            seen.append(xs[0] if name == "enclose_op" else name),
            real(*xs, **kw))[1])

    spy(interp, "float_interval_op_err")
    spy(enclosure, "enclose_op")
    spy(interp, "sin_f64")
    assert eval_error(e, cfg=CFG) == want
    assert eval_approx(a, cfg=CFG) == want_a
    assert sorted(seen) == ["dr", "float_interval_op_err", "sin_f64", "sinr"]


def test_values_are_equal_only_within_their_class():
    # values are tuples, but a Nat, a Bool and a float over one payload, or
    # a closure and a type closure over one body, are different values
    body = Var("x")
    pairs = [(VNat(1), VBool(True)), (VFloat(1.0), VNat(1)),
             (VFloat(0.0), VBool(False)), (VNat(0), VFloat(-0.0)),
             (VClosure("x", body, ()), VTyClosure("x", body, ())),
             (VFix(VNat(1)), VNat(1))]
    for a, b in pairs:
        assert a != b and b != a and not a == b and not b == a
    assert len({VNat(1), VBool(True), VFloat(1.0)}) == 3


def test_equal_values_hash_equal():
    third = Fraction(1, 3)
    for a, b in [(VNat(7), VNat(7)), (VFloat(0.5), VFloat(0.5)),
                 (VReal(from_rational(third, 64)),
                  VReal(from_rational(third, 64))),
                 (VClosure("x", Var("x"), (("y", VNat(2)),)),
                  VClosure("x", Var("x"), (("y", VNat(2)),))),
                 (VBuiltin("+r"), VBuiltin("+r", ())),
                 (VFix(VBuiltin("+r")), VFix(VBuiltin("+r"))),
                 (VErr.point(third), VErr(third, third))]:
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert VBool(True) is VBool(1) and VBool(False) is VBool(0)


def test_value_reprs_name_their_fields():
    # reprs appear in records and error messages
    assert [repr(v) for v in (
        VNat(3), VBool(False), VFloat(0.5), VBuiltin("+r", (VNat(1),)),
        VFix(VBuiltin("+r")),
        VClosure("x", Var("x"), (("y", VNat(2)),)),
        VTyClosure("a", Var("x"), ()),
        VReal(from_rational(Fraction(1, 2), 4)))] == [
        "VNat(value=3)", "VBool(value=False)", "VFloat(value=0.5)",
        "VBuiltin(op='+r', args=(VNat(value=1),))",
        "VFix(fn=VBuiltin(op='+r', args=()))",
        "VClosure(binder='x', body=Var(name='x'), "
        "env=(('y', VNat(value=2)),))",
        "VTyClosure(tyvar='a', body=Var(name='x'), env=())",
        "VReal(enc=RealEnclosure(lo=Fraction(1, 2), hi=Fraction(1, 2), "
        "precision_bits=4))"]


def test_call_table_tells_a_nat_from_a_bool():
    # one closed fix, called at Bool true and then at Nat 1: the two
    # arguments hash alike, and the table must not answer the second call
    # with the first call's result
    e = parse("(app (lam (p (forall a (-> a a)))"
              " (if (app (tyapp p Bool) true) (app (tyapp p Nat) 1) 0))"
              " (tlam a (fix (lam (f (-> a a)) (lam (x a) x)))))")
    assert infer_type(TyCtx(), e) == NAT
    assert repr(eval_exact(e, cfg=CFG)) == "VNat(value=1)"
