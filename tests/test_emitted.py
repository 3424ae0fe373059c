"""The emitted bytes of every corpus program are pinned.

Each corpus program compiles with its sidecar options, and its approximate
program, error expression and derivation JSON must equal the entry in
tests/golden/corpus_emit.json.  A change that alters an emitted byte
regenerates that file, and says why:

    PYTHONPATH=src python tests/test_emitted.py
"""
import json
from pathlib import Path

from approxc.checker import load_sidecar_opts
from approxc.compiler import CompileOpts, compile_program
from approxc.parser import parse
from approxc.syntax import to_source

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden" / "corpus_emit.json"


def _compiled():
    for path in sorted((REPO / "corpus").glob("*.ax")):
        opts = load_sidecar_opts(path, CompileOpts())
        yield path.name, compile_program(parse(path.read_text()), opts)


def emit_corpus() -> dict:
    # the derivation is stored parsed, so a regenerated file diffs readably
    return {name: {"approx": to_source(r.approx), "err": to_source(r.err),
                   "derivation": json.loads(r.derivation_json())}
            for name, r in _compiled()}


def test_corpus_emits_the_pinned_bytes():
    golden = json.loads(GOLDEN.read_text())
    got = dict(_compiled())
    assert sorted(got) == sorted(golden)
    for name, r in got.items():
        want = golden[name]
        assert to_source(r.approx) == want["approx"], name
        assert to_source(r.err) == want["err"], name
        assert r.derivation_json() == json.dumps(want["derivation"],
                                                 sort_keys=True), name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(emit_corpus(), indent=1, sort_keys=True) + "\n")
