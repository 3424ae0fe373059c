"""Error carriers as ordered monoids, with executable axiom checks.

An instance packages a carrier type with its order, addition, and zero.
The scalar instance over nonnegative extended reals decides comparisons
exactly; function carriers are built by pointwise lifting and compare on
sampled probe inputs, so their positive verdicts are explicitly weaker
(yes-on-samples).
"""
from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field
from functools import reduce
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .enclosure import from_rational
from .interp import (
    ERR_ZERO, EvalConfig, Value, VClosure, VErr, VFix, VReal, apply_value,
    bound_of, err_add, err_over, err_of_value,
)
from .sampling import (
    sample_err_fraction, sample_real_fraction, trial_rng,
)
from .syntax import (
    ERRREAL, REAL, App, Arrow, Builtin, ErrLit, Expr, Lam, Ty, Var,
    to_source,
)

AXIOM_NAMES = (
    "Closedness",
    "Monotonicity",
    "Leastness of 0",
    "Identity",
    "Commutativity",
    "Associativity",
)


class LeqVerdict(enum.Enum):
    YES = "yes"
    NO = "no"
    YES_ON_SAMPLES = "yes-on-samples"


@dataclass
class QuantInstance:
    name: str
    carrier: Ty
    zero: Value
    plus: Callable[[Value, Value], Value]
    leq: Callable[[Value, Value, random.Random], Tuple[LeqVerdict, Optional[str]]]
    sample: Callable[[random.Random], Value]
    exact: bool  # scalar instances decide leq exactly on point values


# ---------------------------------------------------------------------------
# the scalar instance over nonnegative extended reals

def scalar_err_leq(a: VErr, b: VErr) -> LeqVerdict:
    """Compare evaluated bounds.  Point values decide exactly; interval
    values (bounds that embed irrational reals) say yes or no only when
    certain, and otherwise report the unrefuted weaker verdict."""
    al, ah, ad = a
    bl, bh, bd = b
    if bl is None:
        return LeqVerdict.YES
    if al is None:
        return LeqVerdict.NO
    if ah is not None and ah * bd <= bl * ad:
        return LeqVerdict.YES
    if bh is not None and (ah is None or al * bd > bh * ad):
        return LeqVerdict.NO
    return LeqVerdict.YES_ON_SAMPLES


def _scalar_leq(a: Value, b: Value, rng: random.Random):
    v = scalar_err_leq(err_of_value(a), err_of_value(b))
    if v is LeqVerdict.NO:
        return (v, _value_source(a))
    return (v, None)


def sample_err_value(rng: random.Random) -> VErr:
    return VErr.point(sample_err_fraction(rng))


def q_nonneg_reals() -> QuantInstance:
    return QuantInstance(
        name="nonneg-reals",
        carrier=ERRREAL,
        zero=ERR_ZERO,
        plus=lambda a, b: err_add(err_of_value(a), err_of_value(b)),
        leq=_scalar_leq,
        sample=sample_err_value,
        exact=True,
    )


# ---------------------------------------------------------------------------
# pointwise lifting to function carriers

_LIFT_CFG = EvalConfig(fuel=200_000, precision_bits=96)


def lifted_instance(arg_specs: Sequence[Tuple[Ty, Callable[[random.Random], Value]]],
                    name: str, probes: int = 4) -> QuantInstance:
    """The instance over arg1 -> ... -> argN -> ErrReal, everything
    pointwise over the scalar leaf."""
    specs = list(arg_specs)
    binders = [f"%x{i}" for i in range(len(specs))]
    carrier: Ty = ERRREAL
    for ty, _ in reversed(specs):
        carrier = Arrow(ty, carrier)

    def _const(body: Expr) -> VClosure:
        for b, (ty, _) in reversed(list(zip(binders, specs))[1:]):
            body = Lam(b, ty, body)
        return VClosure(binders[0], body, ())

    zero = _const(ErrLit(Fraction(0)))
    top = _const(ErrLit(None))
    # every sum shares one body, staged once; the addends are in its env
    sum_body = _const(Builtin("+q", tuple(
        reduce(App, map(Var, binders), Var(f)) for f in ("%f", "%g")))).body

    def plus(f: Value, g: Value) -> Value:
        return VClosure(binders[0], sum_body, (("%f", f), ("%g", g)))

    def leq(f: Value, g: Value, rng: random.Random):
        for _ in range(probes):
            args = [mk(rng) for _, mk in specs]
            fb = bound_of(apply_value(f, args, _LIFT_CFG))
            gb = bound_of(apply_value(g, args, _LIFT_CFG))
            if scalar_err_leq(fb, gb) is LeqVerdict.NO:
                witness = " ".join(_value_source(a) for a in args)
                return (LeqVerdict.NO, witness)
        return (LeqVerdict.YES_ON_SAMPLES, None)

    def sample(rng: random.Random) -> Value:
        k = rng.randrange(8)
        if k == 0:
            return zero
        if k == 1:
            return top
        if k <= 4:
            q = sample_err_fraction(rng)
            return _const(ErrLit(q))
        if k <= 6 and specs[-1][0] == ERRREAL:
            # shapes like the canonical function errors: the input error
            # passed through, optionally shifted by a constant
            if k == 5:
                return _const(Var(binders[-1]))
            c = sample_err_fraction(rng)
            return _const(Builtin("+q", (Var(binders[-1]), ErrLit(c))))
        q1 = sample_err_fraction(rng)
        q2 = sample_err_fraction(rng)
        return _const(Builtin("+q", (ErrLit(q1), ErrLit(q2))))

    return QuantInstance(
        name=name,
        carrier=carrier,
        zero=zero,
        plus=plus,
        leq=leq,
        sample=sample,
        exact=False,
    )


def _real_arg(rng: random.Random) -> Value:
    return VReal(from_rational(sample_real_fraction(rng), _LIFT_CFG.precision_bits))


def fn_err_instance(probes: int = 4) -> QuantInstance:
    """Errors for approximations of real functions: exact input and its
    input error map to an output error (the scalar instance lifted
    twice, pointwise)."""
    return lifted_instance([(REAL, _real_arg), (ERRREAL, sample_err_value)],
                           name="real-fn-errors", probes=probes)


# ---------------------------------------------------------------------------
# operations

def q_leq(inst: QuantInstance, q1: Value, q2: Value,
          trials: int = 1, seed: int = 42) -> Tuple[LeqVerdict, Optional[str]]:
    """q1 <= q2: exact for scalar carriers, sampled for functions."""
    if inst.exact:
        return inst.leq(q1, q2, trial_rng(seed, 0))
    for t in range(max(1, trials)):
        v, w = inst.leq(q1, q2, trial_rng(seed, t))
        if v is LeqVerdict.NO:
            return (v, w)
    return (LeqVerdict.YES_ON_SAMPLES, None)


def q_plus(inst: QuantInstance, q1: Value, q2: Value) -> Value:
    return inst.plus(q1, q2)


# ---------------------------------------------------------------------------
# axiom checking

@dataclass
class AxiomResult:
    name: str
    status: str  # "pass" | "fail"
    witness: Optional[str] = None


@dataclass
class AxiomReport:
    instance: str
    trials: int
    seed: int
    results: List[AxiomResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_json(self) -> str:
        doc = {
            "schema": "axiom-report/v1",
            "instance": self.instance,
            "trials": self.trials,
            "seed": self.seed,
            "axioms": {
                r.name: ({"status": r.status} if r.witness is None
                         else {"status": r.status, "witness": r.witness})
                for r in self.results
            },
        }
        return json.dumps(doc, sort_keys=True)


def _value_source(v: Value) -> str:
    if isinstance(v, VErr):
        if v.is_infinite:
            return "inf"
        if v.lo_num == v.hi_num:
            return to_source(ErrLit(v.lo))
        return f"(err-interval {v.lo} {v.hi})"
    if isinstance(v, VClosure):
        return f"(lam ({v.binder} _) {to_source(v.body)})"
    if isinstance(v, VFix):
        return f"(fix {_value_source(v.fn)})"
    from .interp import VBool, VFloat, VNat
    if isinstance(v, VReal):
        return f"[{v.enc.lo}, {v.enc.hi}]"
    if isinstance(v, VNat):
        return str(v.value)
    if isinstance(v, VFloat):
        return repr(v.value)
    if isinstance(v, VBool):
        return "true" if v.value else "false"
    return repr(v)


def _shrink_scalar(v: Value, still_fails) -> Value:
    """Greedy shrink of a failing scalar witness: try zero, then halve."""
    if not isinstance(v, VErr) or v.is_infinite:
        return v
    if still_fails(ERR_ZERO):
        return ERR_ZERO
    cur = v
    for _ in range(200):
        if cur.lo_num == 0:
            break
        cand = err_over(cur.lo_num, cur.lo_num, 2 * cur.den)
        if still_fails(cand):
            cur = cand
            continue
        break
    return cur


def _agree(inst: QuantInstance, a: Value, b: Value, rng: random.Random) -> bool:
    v1, _ = inst.leq(a, b, rng)
    v2, _ = inst.leq(b, a, rng)
    return v1 is not LeqVerdict.NO and v2 is not LeqVerdict.NO


def _inhabits(inst: QuantInstance, v: Value) -> bool:
    if inst.carrier == ERRREAL:
        return isinstance(v, VErr)
    if isinstance(inst.carrier, Arrow):
        return isinstance(v, (VClosure, VFix))
    return True


def check_quant_axioms(inst: QuantInstance, trials: int = 1000,
                       seed: int = 42) -> AxiomReport:
    """Exercise the ordered-monoid laws on sampled carrier values.

    Scalar instances decide with exact rational arithmetic; lifted ones
    check on sampled probe points.  A failing axiom reports a shrunk
    witness in surface syntax.
    """
    report = AxiomReport(instance=inst.name, trials=trials, seed=seed)
    failures = {}

    def fail(axiom: str, witness: Value, still_fails=None):
        if axiom in failures:
            return
        if inst.exact and still_fails is not None:
            witness = _shrink_scalar(witness, still_fails)
        failures[axiom] = _value_source(witness)

    for t in range(trials):
        rng = trial_rng(seed, t)
        q1 = inst.sample(rng)
        q2 = inst.sample(rng)
        q3 = inst.sample(rng)

        s = inst.plus(q1, q2)
        if not _inhabits(inst, s):
            fail("Closedness", s)

        # grow both addends; the sum must not shrink
        d1, d2 = inst.sample(rng), inst.sample(rng)
        bigger = inst.plus(inst.plus(q1, d1), inst.plus(q2, d2))
        if inst.leq(s, bigger, rng)[0] is LeqVerdict.NO:
            fail("Monotonicity", q1)

        if inst.leq(inst.zero, q1, rng)[0] is LeqVerdict.NO:
            fail("Leastness of 0", q1,
                 lambda w: inst.leq(inst.zero, w, trial_rng(seed, t))[0] is LeqVerdict.NO)

        if not _agree(inst, inst.plus(q1, inst.zero), q1, rng):
            fail("Identity", q1,
                 lambda w: not _agree(inst, inst.plus(w, inst.zero), w, trial_rng(seed, t)))

        if not _agree(inst, inst.plus(q1, q2), inst.plus(q2, q1), rng):
            fail("Commutativity", q1)

        if not _agree(inst, inst.plus(q1, inst.plus(q2, q3)),
                      inst.plus(inst.plus(q1, q2), q3), rng):
            fail("Associativity", q1)

    for name in AXIOM_NAMES:
        if name in failures:
            report.results.append(AxiomResult(name, "fail", failures[name]))
        else:
            report.results.append(AxiomResult(name, "pass"))
    return report
