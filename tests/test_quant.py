import dataclasses
from fractions import Fraction

from approxc import interp, quant
from approxc.enclosure import from_rational
from approxc.families import FL, check_approx_axioms
from approxc.interp import (
    ERR_INF, VBool, VBuiltin, VClosure, VErr, VFix, VFloat, VNat, VReal,
    err_of_value,
)
from approxc.quant import (
    AXIOM_NAMES, LeqVerdict, _value_source, check_quant_axioms,
    fn_err_instance, lifted_instance, q_leq, q_nonneg_reals, q_plus,
)
from approxc.syntax import ERRREAL, Builtin, ErrLit, Var


def test_zero_is_least():
    qr = q_nonneg_reals()
    v, _ = q_leq(qr, VErr.point(Fraction(0)), VErr.point(Fraction(1, 3)))
    assert v is LeqVerdict.YES


def test_infinity_not_below_finite():
    qr = q_nonneg_reals()
    v, _ = q_leq(qr, ERR_INF, VErr.point(Fraction(5)))
    assert v is LeqVerdict.NO


def test_plus_examples():
    qr = q_nonneg_reals()
    s = q_plus(qr, VErr.point(Fraction(1, 4)), VErr.point(Fraction(1, 4)))
    assert s.lo == s.hi == Fraction(1, 2)
    assert q_plus(qr, ERR_INF, VErr.point(Fraction(0))).is_infinite


def test_identity_law_up_to_order():
    qr = q_nonneg_reals()
    q = VErr.point(Fraction(7, 16))
    s = q_plus(qr, q, qr.zero)
    assert q_leq(qr, s, q)[0] is LeqVerdict.YES
    assert q_leq(qr, q, s)[0] is LeqVerdict.YES


def test_scalar_axioms_all_pass_exactly():
    rep = check_quant_axioms(q_nonneg_reals(), trials=300, seed=42)
    assert rep.ok, rep.to_json()
    assert [r.name for r in rep.results] == list(AXIOM_NAMES)


def test_broken_zero_fails_leastness_with_shrunk_witness():
    qr = q_nonneg_reals()
    broken = dataclasses.replace(qr, name="broken",
                                 zero=VErr.point(Fraction(1)))
    rep = check_quant_axioms(broken, trials=50, seed=42)
    res = {r.name: r for r in rep.results}
    assert res["Leastness of 0"].status == "fail"
    assert res["Leastness of 0"].witness == "(err 0/1)"


def test_lifted_instance_axioms_pass_on_samples():
    rep = check_quant_axioms(fn_err_instance(), trials=150, seed=42)
    assert rep.ok, rep.to_json()


def test_pointwise_dominance_and_refutation():
    inner = [(ERRREAL, lambda rng: VErr.point(Fraction(rng.randint(0, 5))))]
    inst = lifted_instance(inner, "t")
    ident = VClosure("%x0", Var("%x0"), ())
    shifted = VClosure("%x0", Builtin("+q", (Var("%x0"), ErrLit(Fraction(1)))), ())
    v, _ = q_leq(inst, ident, shifted, trials=10, seed=1)
    assert v is LeqVerdict.YES_ON_SAMPLES
    v, w = q_leq(inst, shifted, ident, trials=10, seed=1)
    assert v is LeqVerdict.NO and w is not None


def test_infinity_is_top_on_samples():
    qr = q_nonneg_reals()
    from approxc.sampling import trial_rng
    rng = trial_rng(11, 0)
    for _ in range(200):
        q = qr.sample(rng)
        assert q_leq(qr, q, ERR_INF)[0] is LeqVerdict.YES


def test_report_json_is_deterministic():
    r1 = check_quant_axioms(q_nonneg_reals(), trials=50, seed=42).to_json()
    r2 = check_quant_axioms(q_nonneg_reals(), trials=50, seed=42).to_json()
    assert r1 == r2
    assert '"schema": "axiom-report/v1"' in r1


def _failures(report) -> dict:
    return {r.name: r.witness for r in report.results if r.status == "fail"}


def test_a_plus_that_drops_its_second_operand_fails_both_suites(monkeypatch):
    monkeypatch.setitem(interp._DELTA, "+q",
                        lambda m, x, y: err_of_value(x))
    assert _failures(check_approx_axioms(FL, trials=10)) == {
        "Error Addition": "41/50000000",
        "Approximate Equality": "41/50000000",
        "Triangle Inequality": "533953657/524288",
    }
    assert _failures(check_quant_axioms(fn_err_instance(), trials=10)) == {
        "Commutativity": "(lam (%x0 _) (lam (%x1 ErrReal) %x1))"}


def test_a_plus_that_adds_an_eighth_fails_identity_at_zero(monkeypatch):
    # the witness shrinks from the sampled one down to zero
    eighth = VErr.point(Fraction(1, 8))
    add = quant.err_add
    monkeypatch.setattr(quant, "err_add",
                        lambda a, b: add(add(a, b), eighth))
    assert _failures(check_quant_axioms(q_nonneg_reals(), trials=10)) == {
        "Identity": "(err 0/1)"}


def test_witness_source_of_each_value_class():
    half = Fraction(1, 2)
    ident = VClosure("x", Var("x"), ())
    assert [_value_source(v) for v in (
        VNat(3), VBool(True), VBool(False), VFloat(0.5),
        VReal(from_rational(half, 8)), VErr.point(half), VErr(half, 1),
        ERR_INF, ident, VFix(ident), VBuiltin("+r"))] == [
        "3", "true", "false", "0.5", "[1/2, 1/2]", "(err 1/2)",
        "(err-interval 1/2 1)", "inf", "(lam (x _) x)",
        "(fix (lam (x _) x))", "VBuiltin(op='+r', args=())"]
