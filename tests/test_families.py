import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from hypothesis import given

from approxc import enclosure, families, interp
from approxc.checker import _instantiations, load_sidecar_opts
from approxc.compiler import CompileError, CompileOpts, compile_program
from approxc.families import (
    BOOL_A, FL, NAT_A, ApproxCtx, Pi, PiTy, ValTriple, VarBase,
    _base_check, _verdict, aeq_check, appr_member, approx_ty,
    check_approx_axioms, ctx_exact, err_ty, exact_ty, family_from_type,
    family_source, fn_family, instantiate_poly, join_apply, member_trial,
    member_trials,
    plus_apply,
    plus_lambda, sample_member_triple, same_family, weaken_err_expr,
    zero_expr,
)
from approxc.floats import nearest_float, to_fraction
from approxc.interp import (
    DIVERGED, EvalConfig, eval_error, eval_exact, bound_of,
)
from approxc.parser import parse
from approxc.sampling import trial_rng
from approxc.syntax import (
    ERRREAL, NAT, REAL, App, Arrow, Builtin, ErrLit, FloatLit, Forall, Lam,
    NatLit, RealLit, to_source,
)
from approxc.typecheck import TyCtx, infer_type
from test_random_programs import programs

CFG = EvalConfig(fuel=200_000, precision_bits=128)
PI40 = Fraction("3.1415926535897932384626433832795028841972")


def test_pi_membership_bounds():
    # pass at the loose bound, pass one ulp-of-decimals tighter, fail
    # below the true distance 0.14159265358979...
    assert appr_member(FL, ErrLit(Fraction("0.1415927")), FloatLit.of(3.0),
                       RealLit(PI40), trials=1, seed=42, cfg=CFG).ok
    assert appr_member(FL, ErrLit(Fraction("0.14159266")), FloatLit.of(3.0),
                       RealLit(PI40), trials=1, seed=42, cfg=CFG).ok
    v = appr_member(FL, ErrLit(Fraction("0.1415926")), FloatLit.of(3.0),
                    RealLit(PI40), trials=1, seed=42, cfg=CFG)
    assert v.status == "fail"
    assert v.counterexample is not None


def test_exactly_representable_membership_at_zero():
    assert appr_member(FL, ErrLit(Fraction(0)), FloatLit.of(1.0),
                       RealLit(Fraction(1)), trials=1, seed=42, cfg=CFG).ok


def test_membership_failure_distance_oracle():
    # |1/3 - 1/2| = 1/6 > 1/10
    v = appr_member(FL, ErrLit(Fraction(1, 10)), FloatLit.of(0.5),
                    RealLit(Fraction(1, 3)), trials=1, seed=42, cfg=CFG)
    assert v.status == "fail"
    assert Fraction(v.counterexample["excess"]) > 0


def test_infinite_bound_always_passes():
    v = appr_member(FL, ErrLit(None), FloatLit.of(0.5),
                    RealLit(Fraction(10**6)), trials=1, seed=42, cfg=CFG)
    assert v.ok


def test_aeq_examples():
    assert aeq_check(FL, ErrLit(Fraction(0)), parse("(+r 1/1 2/1)"),
                     parse("(+r 1/1 2/1)"), cfg=CFG).ok
    assert aeq_check(FL, ErrLit(Fraction(1, 2)), RealLit(Fraction(1)),
                     RealLit(Fraction(5, 4)), cfg=CFG).ok
    assert aeq_check(FL, ErrLit(None), RealLit(Fraction(1)),
                     RealLit(Fraction(999)), cfg=CFG).ok
    v = aeq_check(FL, ErrLit(Fraction(1, 8)), RealLit(Fraction(1)),
                  RealLit(Fraction(5, 4)), cfg=CFG)
    assert v.status == "fail"


def test_aeq_undecided_bound_is_inconclusive():
    q = parse("(if (leqr 1/3 1/3) (err 1/2) (err 1/4))")
    v = aeq_check(FL, q, RealLit(Fraction(1)), RealLit(Fraction(5, 4)), cfg=CFG)
    assert v.status == "inconclusive"


def _exact_reading(a):
    if isinstance(a, FloatLit):
        return RealLit(to_fraction(a.value))
    return a


def test_membership_and_equality_agree_on_base_triples():
    """Membership of a agrees with equality against a's exact value."""
    rng = trial_rng(5, 0)
    statuses = set()
    for fam, zero in ((FL, ErrLit(Fraction(0))), (NAT_A, NatLit(0))):
        for _ in range(15):
            e, a, q = sample_member_triple(fam, rng)
            claims = [(q, a), (zero, a)]
            if fam == NAT_A:
                claims.append((zero, NatLit(a.value + 1 + rng.randrange(3))))
            for qq, aa in claims:
                m = appr_member(fam, qq, aa, e, trials=1, seed=42, cfg=CFG)
                eq = aeq_check(fam, qq, e, _exact_reading(aa), trials=1,
                               seed=42, cfg=CFG)
                assert m.status == eq.status, (to_source(e), to_source(aa),
                                               to_source(qq))
                statuses.add(m.status)
    assert statuses == {"pass", "fail"}


def test_nat_membership_exact():
    assert appr_member(NAT_A, NatLit(0), NatLit(7), NatLit(7),
                       trials=1, seed=42, cfg=CFG).ok
    v = appr_member(NAT_A, NatLit(1), NatLit(9), NatLit(7),
                    trials=1, seed=42, cfg=CFG)
    assert v.status == "fail"


def test_function_membership_identity_and_sin():
    flfl = fn_family(FL, FL)
    v = appr_member(flfl, parse("(lam (x Real) (lam (k ErrReal) k))"),
                    parse("(lam (x Float64) x)"), parse("(lam (x Real) x)"),
                    trials=40, seed=42, cfg=CFG)
    assert v.ok and v.on_samples
    v = appr_member(flfl, parse("(lam (x Real) (lam (k ErrReal) (sinerr x k)))"),
                    parse("(lam (x Float64) (sinf x))"),
                    parse("(lam (x Real) (sinr x))"),
                    trials=25, seed=42, cfg=CFG)
    assert v.ok, v.to_json()


def test_function_membership_refutes_bad_bound():
    flfl = fn_family(FL, FL)
    # claiming zero error for the sine lowering is wrong
    v = appr_member(flfl, parse("(lam (x Real) (lam (k ErrReal) (err 0/1)))"),
                    parse("(lam (x Float64) (sinf x))"),
                    parse("(lam (x Real) (sinr x))"),
                    trials=60, seed=42, cfg=CFG)
    assert v.status == "fail"
    assert v.counterexample["inputs"]


def test_membership_weakening_at_verdict_level():
    """A pass at q stays a pass at q + c on the same seed."""
    flfl = fn_family(FL, FL)
    q = parse("(lam (x Real) (lam (k ErrReal) (sinerr x k)))")
    a = parse("(lam (x Float64) (sinf x))")
    e = parse("(lam (x Real) (sinr x))")
    base = member_trials(flfl, q, a, e, 25, 42, CFG)
    weak = member_trials(flfl, weaken_err_expr(flfl, q, Fraction(1, 1000)),
                         a, e, 25, 42, CFG)
    for b, w in zip(base, weak):
        if b.status == "pass":
            assert w.status == "pass"


def test_sampled_triples_are_members():
    rng = trial_rng(13, 0)
    for fam in (FL, NAT_A, BOOL_A, fn_family(FL, FL),
                fn_family(NAT_A, FL), fn_family(NAT_A, NAT_A)):
        for _ in range(12):
            trip = sample_member_triple(fam, rng)
            assert trip is not None
            e, a, q = trip
            v = appr_member(fam, q, a, e, trials=4, seed=99, cfg=CFG)
            assert v.status != "fail", (family_source(fam), to_source(e),
                                        v.to_json())


def test_family_types_and_zero_plus():
    flfl = fn_family(FL, FL)
    assert exact_ty(flfl) == Arrow(REAL, REAL)
    assert approx_ty(flfl) == parse_ty_helper("(-> Float64 Float64)")
    assert err_ty(flfl) == Arrow(REAL, Arrow(ERRREAL, ERRREAL))
    z = zero_expr(flfl)
    assert infer_type(TyCtx(), z) == err_ty(flfl)
    pl = plus_lambda(flfl)
    assert infer_type(TyCtx(), pl) == Arrow(err_ty(flfl),
                                            Arrow(err_ty(flfl), err_ty(flfl)))


def parse_ty_helper(s):
    from approxc.parser import parse_ty
    return parse_ty(s)


def test_family_from_type():
    assert family_from_type(REAL) == FL
    assert same_family(family_from_type(Arrow(REAL, REAL)), fn_family(FL, FL))
    with pytest.raises(TypeError):
        family_from_type(ERRREAL)


def test_instantiate_poly_both_bases():
    vb = VarBase("X", "X_a", "X_q", "z0", "zp")
    pt = PiTy("X", "X_a", "X_q", "z0", "zp", fn_family(vb, vb))
    assert family_source(instantiate_poly(pt, FL)) == "Fl => Fl"
    assert family_source(instantiate_poly(pt, NAT_A)) == "Nat => Nat"
    # nested instantiation leaves no residual variables
    inst = instantiate_poly(pt, FL)
    assert "X" not in family_source(inst)


def test_polymorphic_membership_monomorphizes():
    pt = PiTy("X", "X_a", "X_q", "z0", "zp",
              fn_family(VarBase("X", "X_a", "X_q", "z0", "zp"),
                        VarBase("X", "X_a", "X_q", "z0", "zp")))
    e = parse("(tlam X (lam (x X) x))")
    a = parse("(tlam X_a (lam (x X_a) x))")
    q = parse("(tlam X (tlam X_q (lam (z0 X_q) (lam (zp (-> X_q (-> X_q X_q)))"
              " (lam (x X) (lam (xq X_q) xq))))))")
    v = appr_member(pt, q, a, e, trials=20, seed=42, cfg=CFG)
    assert v.ok, v.to_json()


def test_approx_axioms_base_and_function():
    cfg = EvalConfig(fuel=200_000, precision_bits=96, max_precision_bits=768)
    rep = check_approx_axioms(FL, trials=80, seed=42, cfg=cfg)
    assert rep.ok, rep.to_json()
    rep = check_approx_axioms(fn_family(FL, FL), trials=40, seed=42, cfg=cfg)
    assert rep.ok, rep.to_json()


def test_membership_stable_under_precision_raise():
    """A pass never flips to fail at higher oracle precision."""
    cases = [
        (ErrLit(Fraction("0.1415927")), FloatLit.of(3.0), RealLit(PI40)),
        (ErrLit(Fraction(0)), FloatLit.of(1.0), RealLit(Fraction(1))),
        (ErrLit(Fraction(1, 3 * 2**54)),
         FloatLit.of(nearest_float(Fraction(1, 3))), RealLit(Fraction(1, 3))),
    ]
    for q, a, e in cases:
        lo = appr_member(FL, q, a, e, trials=1, seed=42,
                         cfg=EvalConfig(fuel=10**5, precision_bits=64))
        hi = appr_member(FL, q, a, e, trials=1, seed=42,
                         cfg=EvalConfig(fuel=10**5, precision_bits=512))
        assert lo.ok and hi.ok


def test_projected_contexts_are_disjoint():
    ctx = ApproxCtx()
    ctx = ctx.extend(ValTriple("x", "x_a", "x_q", FL))
    ctx = ctx.extend(VarBase("X", "X_a", "X_q", "z0", "zp"))
    with pytest.raises(ValueError):
        ctx.extend(ValTriple("x", "u", "v", FL))
    assert ctx_exact(ctx).lookup("x") == REAL


# -- one call table per precision step --------------------------------------

def test_one_precision_step_evaluates_each_fix_call_once(corpus_dir,
                                                         monkeypatch):
    # fix_sum's error program calls the exact recursion on n - 1 at every
    # level, and the exact program runs it on n; sharing the table, the
    # step adds each prefix once (with a table per evaluation and only the
    # inner calls memoized it ran 189 additions here)
    n = 64
    e = parse((corpus_dir / "fix_sum.ax").read_text())
    r = compile_program(e)
    adds = []
    enclose_op = enclosure.enclose_op

    def spy(op, *args, **kwargs):
        adds.append(op == "+r")
        return enclose_op(op, *args, **kwargs)
    monkeypatch.setattr(enclosure, "enclose_op", spy)
    one_step = EvalConfig(precision_bits=128, max_precision_bits=128)
    status, _ = _base_check(FL, r.err, e, r.approx, True, one_step,
                            (NatLit(n), NatLit(0)), (NatLit(n),),
                            (NatLit(n),))
    assert status == "pass"
    assert sum(adds) <= n + 1


@contextmanager
def _fresh_tables():
    """Give every evaluation a machine with its own call table.  At least
    one machine must be asked to share a table: were the machines built
    some other way, the comparisons below would hold vacuously."""
    machine, shared = interp._Machine, []

    def fresh(cfg, calls=None):
        shared.append(calls is not None)
        return machine(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp, "_Machine", fresh)
        yield
    assert any(shared), "no evaluation built a machine on a shared table"


def _member_records(e, r, trials, seed, cfg):
    return [(tag, o.status, o.record)
            for tag, me, ma, mq, fam in _instantiations(r, e)
            for o in member_trials(fam, mq, ma, me, trials, seed, cfg)]


def _shared_and_fresh(run):
    shared = run()
    with _fresh_tables():
        fresh = run()
    return shared, fresh


def test_shared_table_keeps_every_corpus_record(corpus_dir):
    for path in sorted(corpus_dir.glob("*.ax")):
        e = parse(path.read_text())
        r = compile_program(e, load_sidecar_opts(path, CompileOpts(cfg=CFG)))
        shared, fresh = _shared_and_fresh(
            lambda: _member_records(e, r, 40, 42, CFG))
        assert shared == fresh, path.name


def test_shared_table_keeps_equality_records():
    cfg = EvalConfig(fuel=200_000, precision_bits=96, max_precision_bits=768)
    shared, fresh = _shared_and_fresh(lambda: check_approx_axioms(
        fn_family(FL, FL), trials=20, seed=42, cfg=cfg).to_json())
    assert shared == fresh


def test_each_precision_step_has_its_own_table():
    # a tight bound escalates the precision until the enclosures agree; a
    # fix result kept from a coarser step would stop them from narrowing
    third = parse("(app (fix (lam (f (-> Nat Real)) (lam (n Nat) "
                  "(if (leqn n 0) 1/3 (app f (-n n 1)))))) 2)")
    a = FloatLit.of(nearest_float(Fraction(1, 3)))
    q = ErrLit(abs(Fraction(1, 3) - to_fraction(a.value)))
    shared, fresh = _shared_and_fresh(lambda: member_trials(
        FL, q, a, third, 1, 42, CFG)[0].record)
    assert shared == fresh and shared["tight"]


@pytest.mark.parametrize("name", ["sin_plus", "sin_subst"])
def test_one_precision_step_takes_each_sine_once(corpus_dir, monkeypatch,
                                                 name):
    # sin_plus's error program holds (sinr x) twice and sin_subst's once,
    # and the exact program takes it again; without the table's sines the
    # step took three and two
    path = corpus_dir / f"{name}.ax"
    e = parse(path.read_text())
    r = compile_program(e, load_sidecar_opts(path, CompileOpts(cfg=CFG)))
    x = Fraction(1, 3)
    xa = FloatLit.of(nearest_float(x))
    xq = ErrLit(abs(x - to_fraction(xa.value)))
    sines = []
    enclose_op = enclosure.enclose_op

    def spy(op, *args, **kwargs):
        sines.append(op == "sinr")
        return enclose_op(op, *args, **kwargs)
    monkeypatch.setattr(enclosure, "enclose_op", spy)
    one_step = EvalConfig(precision_bits=128, max_precision_bits=128)
    status, _ = _base_check(FL, r.err, e, r.approx, True, one_step,
                            (RealLit(x), xq), (RealLit(x),), (xa,))
    assert status == "pass"
    assert sum(sines) == 1


def test_shared_table_keeps_sine_records_and_verdicts(corpus_dir):
    def run(e, r):
        return [(tag, _verdict(fam, outs).to_json(),
                 [(o.status, o.record) for o in outs])
                for tag, me, ma, mq, fam in _instantiations(r, e)
                for outs in [member_trials(fam, mq, ma, me, 200, 42, CFG)]]

    for name in ("sin_lower", "sin_plus", "sin_subst"):
        path = corpus_dir / f"{name}.ax"
        e = parse(path.read_text())
        r = compile_program(e, load_sidecar_opts(path, CompileOpts(cfg=CFG)))
        shared, fresh = _shared_and_fresh(lambda: run(e, r))
        assert shared == fresh, name


@given(programs())
def test_shared_table_keeps_random_program_records(case):
    e, opts = case
    try:
        r = compile_program(e, opts)
    except CompileError:
        return
    shared, fresh = _shared_and_fresh(
        lambda: _member_records(e, r, 10, 7, CFG))
    assert shared == fresh, to_source(e)


# -- what a trial builds ----------------------------------------------------

def _count_staging(monkeypatch) -> list:
    """Record every node interp stages from now on."""
    staged = []
    for ty, stage in list(interp._STAGERS.items()):
        monkeypatch.setitem(interp._STAGERS, ty,
                            lambda n, stage=stage: (staged.append(n), stage(n))[1])
    return staged


def test_function_check_stages_nothing_after_its_first_trial(monkeypatch):
    # a trial applies the programs' values to its drawn inputs, so the
    # programs are staged once and the inputs never
    e = parse("(lam (x Real) (*r x (sinr x)))")
    r = compile_program(e, CompileOpts(cfg=CFG))
    staged = _count_staging(monkeypatch)
    after = []
    for t in range(50):
        assert member_trial(r.family, r.err, r.approx, e, t, 42,
                            CFG).status == "pass"
        after.append(len(staged))
    assert after[0] > 0 and after[-1] == after[0]


def test_base_family_checks_seed_no_generator(monkeypatch):
    seeded = []

    class Counting(random.Random):
        def __init__(self, *args):
            seeded.append(args)
            super().__init__(*args)
    monkeypatch.setattr(random, "Random", Counting)
    third = RealLit(Fraction(1, 3))
    a = FloatLit.of(nearest_float(third.value))
    q = ErrLit(abs(third.value - to_fraction(a.value)))
    assert appr_member(FL, q, a, third, trials=50, cfg=CFG).ok
    assert aeq_check(FL, ErrLit(Fraction(1)), third, RealLit(Fraction(1)),
                     trials=50, cfg=CFG).ok
    assert appr_member(NAT_A, NatLit(0), NatLit(3), NatLit(3), trials=50).ok
    assert seeded == []
    # the spy sees the generator of a family that samples
    ident = parse("(lam (x Real) x)")
    assert appr_member(fn_family(FL, FL), parse(
        "(lam (x Real) (lam (k ErrReal) k))"), parse("(lam (x Float64) x)"),
        ident, trials=2, cfg=CFG).ok
    assert len(seeded) == 2


def test_passing_trials_format_no_record(monkeypatch):
    e = parse("(lam (x Real) (sinr x))")
    r = compile_program(e, CompileOpts(cfg=CFG))
    formatted = []
    fraction_str, source = Fraction.__str__, families.to_source
    monkeypatch.setattr(Fraction, "__str__",
                        lambda q: (formatted.append(q), fraction_str(q))[1])
    monkeypatch.setattr(families, "to_source",
                        lambda x: (formatted.append(x), source(x))[1])
    outs = member_trials(r.family, r.err, r.approx, e, 40, 42, CFG)
    base = member_trials(FL, ErrLit(Fraction(1)), FloatLit.of(3.0),
                         RealLit(PI40), 40, 42, CFG)
    assert {o.status for o in outs + base} == {"pass"}
    assert formatted == []
    # reading a record formats it, once
    assert all("measured" in o.record for o in outs + base)
    assert formatted and outs[3].record is outs[3].record


def _fuel_spent(e) -> int:
    """The least fuel at which the error program e converges."""
    lo, hi = 1, 1 << 16
    while lo < hi:
        mid = (lo + hi) // 2
        if eval_error(e, cfg=EvalConfig(fuel=mid)) is DIVERGED:
            lo = mid + 1
        else:
            hi = mid
    return lo


def test_nat_join_evaluates_the_synthesized_error_once():
    fam = compile_program(parse("(lam (n Nat) (+n n 2))"), CompileOpts()).family
    q1 = parse("(lam (n Nat) (lam (n_q Nat) (*n (+n n_q 1) (+n n 2))))")
    q2 = parse("(lam (n Nat) (lam (n_q Nat) (-n 40 (*n n n))))")
    join = join_apply(fam, q1, q2)
    assert to_source(join) == (
        "(lam (n Nat) (lam (n_q Nat) (app (lam (j Nat) (+n j (-n (-n 40 "
        "(*n n n)) j))) (*n (+n n_q 1) (+n n 2)))))")
    # the form before: q1 + (q2 - q1), which evaluates q1 twice
    a, b = join.body.body.arg, join.body.body.fn.body.args[1].args[0]
    old = Lam("n", NAT, Lam("n_q", NAT, Builtin("+n", (a, Builtin(
        "-n", (b, a))))))
    rng = trial_rng(3, 0)
    for _ in range(12):
        x, _, xq = sample_member_triple(fam.fam, rng)
        new_e, old_e = App(App(join, x), xq), App(App(old, x), xq)
        assert eval_error(new_e, cfg=CFG) == eval_error(old_e, cfg=CFG)
        assert _fuel_spent(new_e) < _fuel_spent(old_e)


# a recursion that calls itself on its own argument: it runs out of fuel
# (or of host stack) without ever answering
_LOOP = "(app (fix (lam (f (-> Nat {0})) (lam (n Nat) (app f n)))) 0)"
_DIVERGING = EvalConfig(fuel=10_000)


@pytest.mark.parametrize("fam, q, a, e, status, note", [
    (FL, "(err 1/1)", _LOOP.format("Float64"), "1/1", "fail",
     "approximation diverges under a finite bound"),
    (FL, "(err 1/1)", "1.0", _LOOP.format("Real"), "fail",
     "exact diverges, approximation does not"),
    (FL, "(err 1/1)", _LOOP.format("Float64"), _LOOP.format("Real"), "pass",
     "both sides diverge"),
    (NAT_A, "1", _LOOP.format("Nat"), "1", "fail",
     "one side diverges under a finite bound"),
], ids=["float-side", "exact-side", "both-sides", "nat"])
def test_membership_verdicts_on_a_diverging_side(fam, q, a, e, status, note):
    (o,) = member_trials(fam, parse(q), parse(a), parse(e), 1, 42,
                         _DIVERGING)
    assert (o.status, o.record["note"]) == (status, note)


def test_equality_with_a_diverging_side_is_inconclusive():
    v = aeq_check(FL, parse("(err 1/1)"), parse(_LOOP.format("Real")),
                  parse("1/1"), trials=1, cfg=_DIVERGING)
    assert (v.status, v.reason) == ("inconclusive",
                                    "divergence in equality operands")
