"""Bound values are pinned: a change to how error programs are built must
not change what they evaluate to.

For every corpus program instantiation, the error program is applied to
the inputs drawn at trials 0-3 of seed 42 (the inputs of
tests/test_fuel_boundaries.py, at several trials so that a recursive
program sees several arguments) and evaluated at 128 and 512 bits of
oracle precision.  The resulting bound, lo and hi as rational strings
("inf" for an infinite end), must equal the entry in
tests/golden/corpus_bounds.json.  Unlike the emitted-bytes golden, this
file is not regenerated when error programs change shape; regenerate it
only when a bound value changes on purpose, and say why:

    PYTHONPATH=src python tests/test_bound_values.py
"""
import json
from pathlib import Path

from approxc.interp import EvalConfig, OracleInconclusive, bound_of, eval_error
from test_fuel_boundaries import _applied

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden" / "corpus_bounds.json"
TRIALS = range(4)
PRECISIONS = (128, 512)


def _end(q) -> str:
    return "inf" if q is None else str(q)


def _bound(applied, bits: int):
    e, inputs = applied
    try:
        b = bound_of(eval_error(e, cfg=EvalConfig(precision_bits=bits),
                                inputs=inputs))
    except OracleInconclusive:
        return "inconclusive"
    return [_end(b.lo), _end(b.hi)]


def corpus_bounds() -> dict:
    out: dict = {}
    for trial in TRIALS:
        for key, world, e in _applied(trial):
            if world == "err":
                out[f"{key}@{trial}"] = {str(p): _bound(e, p)
                                         for p in PRECISIONS}
    return out


def test_corpus_bound_values_are_pinned():
    golden = json.loads(GOLDEN.read_text())
    got = corpus_bounds()
    assert sorted(got) == sorted(golden)
    assert [k for k in golden if got[k] != golden[k]] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(corpus_bounds(), indent=1, sort_keys=True)
                      + "\n")
