"""Fuel accounting is pinned: where the evaluator ticks must not move.

For every corpus program (and each instantiation of a polymorphic one),
one fixed member input triple is drawn down its function spine, and the
exact, approximate and error programs are applied to it, as a check
applies them: through the evaluators' inputs.  The smallest
fuel at which each of the three evaluations converges is stored in
tests/golden/fuel_boundaries.json; a test asserts that it still converges
at that fuel and diverges at one less.  An evaluator change that moves a
tick, adds one or drops one fails here.  Regenerate (and say why) with:

    PYTHONPATH=src python tests/test_fuel_boundaries.py
"""
import json
from pathlib import Path

from approxc.checker import _instantiations, load_sidecar_opts
from approxc.compiler import CompileOpts, compile_program
from approxc.families import Pi, sample_member_triple
from approxc.interp import (
    DIVERGED, EvalConfig, eval_approx, eval_error, eval_exact,
)
from approxc.parser import parse
from approxc.sampling import trial_rng

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden" / "fuel_boundaries.json"
SEED = 42
MAX_FUEL = 1 << 24
WORLDS = {"exact": eval_exact, "approx": eval_approx, "err": eval_error}


def _applied(trial: int = 0):
    """(key, world, (program, inputs)) for every corpus program
    instantiation and the inputs drawn at the given trial of seed 42."""
    for path in sorted((REPO / "corpus").glob("*.ax")):
        e = parse(path.read_text())
        result = compile_program(e, load_sidecar_opts(path, CompileOpts()))
        for tag, me, ma, mq, fam in _instantiations(result, e):
            rng = trial_rng(SEED, trial)
            ie, ia, iq = (), (), ()
            while isinstance(fam, Pi):
                x, xa, xq = sample_member_triple(fam.fam, rng)
                ie, ia, iq = ie + (x,), ia + (xa,), iq + (x, xq)
                fam = fam.body
            key = path.name + tag
            yield from ((key, "exact", (me, ie)), (key, "approx", (ma, ia)),
                        (key, "err", (mq, iq)))


def _converges(world: str, applied, fuel: int) -> bool:
    e, inputs = applied
    return WORLDS[world](e, cfg=EvalConfig(fuel=fuel),
                         inputs=inputs) is not DIVERGED


def fuel_boundary(world: str, e) -> int:
    """The smallest fuel at which the evaluation converges."""
    hi = 1
    while not _converges(world, e, hi):
        if hi >= MAX_FUEL:
            raise ValueError(f"no convergence below fuel {MAX_FUEL}")
        hi *= 2
    lo = hi // 2  # diverges at lo (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _converges(world, e, mid):
            hi = mid
        else:
            lo = mid
    return hi


def fuel_boundaries() -> dict:
    out: dict = {}
    for key, world, e in _applied():
        out.setdefault(key, {})[world] = fuel_boundary(world, e)
    return out


def test_fuel_boundaries_are_pinned():
    golden = json.loads(GOLDEN.read_text())
    keys, moved = set(), []
    for key, world, e in _applied():
        keys.add(key)
        fuel = golden[key][world]
        if not _converges(world, e, fuel) or (
                fuel > 1 and _converges(world, e, fuel - 1)):
            moved.append((key, world, fuel))
    assert keys == set(golden)
    assert moved == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(fuel_boundaries(), indent=1, sort_keys=True)
                      + "\n")
