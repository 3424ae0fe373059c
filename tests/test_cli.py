import json
import subprocess
import sys
from pathlib import Path

import pytest

from approxc.cli import main

REPO = Path(__file__).resolve().parents[1]


def _write_pi(tmp_path: Path) -> Path:
    p = tmp_path / "pi.ax"
    p.write_text("3.14159265358979323846264338327950288419716939937511\n")
    return p


def test_compile_emits_three_files(tmp_path, capsys):
    p = _write_pi(tmp_path)
    rc = main(["compile", str(p)])
    assert rc == 0
    approx = (tmp_path / "pi.approx.ax").read_text().strip()
    assert approx == "3.141592653589793"
    err = (tmp_path / "pi.err.ax").read_text().strip()
    assert err.startswith("(err ") and "/" in err
    doc = json.loads((tmp_path / "pi.derivation.json").read_text())
    assert doc["schema"] == "derivation/v1"
    assert doc["derivation"]["rule"] == "R-Lit"


def test_check_writes_report_and_exits_zero(tmp_path):
    p = _write_pi(tmp_path)
    rc = main(["check", str(p), "--trials", "3", "--json"])
    assert rc == 0
    rep = json.loads((tmp_path / "pi.report.json").read_text())
    assert rep["schema"] == "check-report/v1"
    assert rep["failures"] == []


def test_perforation_flag(tmp_path):
    p = tmp_path / "sum8.ax"
    p.write_text("(redseq +r 8 (lam (i Nat) (nat2real i)))\n")
    rc = main(["check", str(p), "--perforate", "L0=2", "--trials", "100"])
    assert rc == 0
    rep = json.loads((tmp_path / "sum8.report.json").read_text())
    assert rep["passes"] == rep["trials"]
    approx = (tmp_path / "sum8.approx.ax").read_text()
    assert "(*n j 2)" in approx  # every second element


def test_subst_sin_flag(tmp_path):
    p = tmp_path / "s.ax"
    p.write_text("(lam (x Real) (sinr x))\n")
    rc = main(["compile", str(p), "--subst-sin"])
    assert rc == 0
    approx = (tmp_path / "s.approx.ax").read_text()
    assert "sinf" not in approx


def test_byte_identical_outputs_across_runs(tmp_path):
    p1 = tmp_path / "a"
    p2 = tmp_path / "b"
    src = tmp_path / "prog.ax"
    src.write_text("(lam (x Real) (+r (sinr x) x))\n")
    for out in (p1, p2):
        rc = main(["check", str(src), "--out", str(out),
                   "--trials", "25", "--seed", "7"])
        assert rc == 0
    for name in ("prog.approx.ax", "prog.err.ax", "prog.derivation.json",
                 "prog.report.json"):
        assert (p1 / name).read_bytes() == (p2 / name).read_bytes(), name


def test_config_errors_exit_two(tmp_path, capsys):
    rc = main(["compile", str(tmp_path / "missing.ax")])
    assert rc == 2
    bad = tmp_path / "bad.ax"
    bad.write_text("(lam (x Real)")
    rc = main(["compile", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ParseError" in err


@pytest.mark.parametrize("depth,error", [(2000, "ParseError"),
                                         (1000, "NestingTooDeep")])
def test_deep_nesting_is_a_typed_error(tmp_path, capsys, depth, error):
    # a right-nested +r chain: the parser recurses once per level, the
    # compiler twice, so the deeper chain stops in the parser and the
    # shallower one in the compiler
    s = "x"
    for _ in range(depth):
        s = f"(+r x {s})"
    p = tmp_path / "deep.ax"
    p.write_text(f"(lam (x Real) {s})")
    rc = main(["compile", str(p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{error}: " in err and "1500 stack frames" in err, err
    assert not list(tmp_path.glob("deep.*.*"))


def test_deep_reduction_site_is_listed(tmp_path, capsys):
    # the site list prints each reduction, which recurses as deep as
    # compiling it, so it runs under the same stack guard
    s = "(nat2real i)"
    for _ in range(600):
        s = f"(+r (nat2real i) {s})"
    p = tmp_path / "deep.ax"
    p.write_text(f"(redseq +r 2 (lam (i Nat) {s}))")
    assert main(["compile", str(p), "--emit", "approx"]) == 0
    assert "(sites: L0)" in capsys.readouterr().out


def test_argument_of_universal_type_exit_two(tmp_path, capsys):
    p = tmp_path / "poly_arg.ax"
    p.write_text("(app (lam (f (forall X (-> X X))) (app (tyapp f Real) 1/1)) "
                 "(tlam X (lam (x X) x)))")
    rc = main(["compile", str(p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Unsupported: an argument of type (forall X (-> X X))" in err, err
    assert not list(tmp_path.glob("poly_arg.*.*"))


@pytest.mark.parametrize("src,ty", [
    ("(lam (x Unit) x)", "(-> Unit Unit)"),
    ("(err 1/2)", "ErrReal"),
    ("(lam (x Float64) x)", "(-> Float64 Float64)"),
    ("(tlam X (lam (x X) (err 1/2)))", "(-> X ErrReal)"),
    ("(lam (f (forall X (-> X X))) 1/2)", "(-> (forall X (-> X X)) Real)"),
])
def test_type_without_a_family_exit_two(src, ty, tmp_path, capsys):
    p = tmp_path / "nofam.ax"
    p.write_text(src)
    rc = main(["compile", str(p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"approxc: {p}: Unsupported: type {ty} has no "
                   "approximation family\n"), err
    assert not list(tmp_path.glob("nofam.*.*"))


def test_malformed_weakening_target_exit_two(tmp_path, capsys):
    p = _write_pi(tmp_path)
    rc = main(["compile", str(p), "--weaken-to", "(err"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("approxc: --weaken-to: ParseError: ")
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert not list(tmp_path.glob("pi.*.*"))


def test_undecidable_weakening_target_exit_two(tmp_path, capsys):
    # 1/3 is not dyadic, so (leqr 1/3 1/3) overlaps at every precision
    p = tmp_path / "third.ax"
    p.write_text("1/3")
    rc = main(["compile", str(p), "--weaken-to",
               "(if (leqr 1/3 1/3) (err 1/1) (err 2/1))"])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("OrderingUndecidable: the weakening check cannot evaluate its "
            "bounds at the 4096-bit cap: comparison undecided at 4096 bits"
            in err), err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("third.*.*"))


def test_check_with_every_trial_inconclusive_exits_three(tmp_path, capsys):
    # a function-family target is not evaluated at compile time, so the
    # undecidable comparison compiles and makes every trial inconclusive
    p = tmp_path / "ident.ax"
    p.write_text("(lam (x Real) x)")
    rc = main(["check", str(p), "--trials", "20", "--weaken-to",
               "(lam (x Real) (lam (x_q ErrReal) "
               "(if (leqr 1/3 1/3) (err 1/1) (err 2/1))))"])
    out = capsys.readouterr()
    assert "0/20 passes, 0 failures, 20 inconclusive" in out.out
    assert rc == 3
    assert "Traceback" not in out.err


def test_bad_perforate_value_exit_two(tmp_path):
    p = _write_pi(tmp_path)
    rc = main(["check", str(p), "--perforate", "L0"])
    assert rc == 2


def test_axioms_subcommand_small(tmp_path):
    rc = main(["axioms", "--trials", "40", "--seed", "42",
               "--out", str(tmp_path), "--json"])
    assert rc == 0
    docs = [json.loads(f.read_text())
            for f in sorted(tmp_path.glob("axioms.*.json"))]
    assert len(docs) == 4
    for d in docs:
        assert all(v["status"] == "pass" for v in d["axioms"].values())


def test_installed_entry_point_runs(tmp_path):
    p = _write_pi(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "approxc.cli", "compile", str(p)],
        capture_output=True, text=True, cwd=str(REPO))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("bits", ["0", "-5"])
def test_nonpositive_precision_bits_exit_two(bits, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "approxc.cli", "check", "corpus/third.ax",
         "--trials", "2", "--precision-bits", bits, "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=str(REPO), timeout=30)
    assert proc.returncode == 2
    assert "--precision-bits" in proc.stderr


def test_unknown_perforation_site_exit_two(tmp_path, capsys):
    rc = main(["compile", str(REPO / "corpus" / "redsum8.ax"),
               "--perforate", "L3=2", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "L3" in err and "L0" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["check", "corpus/third.ax", "--trials", "0"],
    ["check", "corpus/third.ax", "--trials", "-3"],
    ["compile", "corpus/third.ax", "--fuel", "0"],
    ["check", "corpus/third.ax", "--fuel", "-1"],
    ["axioms", "--trials", "0"],
    ["axioms", "--fuel", "0"],
])
def test_nonpositive_counts_exit_two(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as ex:
        main(argv + ["--out", str(tmp_path)])
    assert ex.value.code == 2
    flag = next(a for a in argv if a.startswith("--"))
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("script,flag", [
    ("run_corpus.py", "--trials"), ("run_corpus.py", "--precision-bits"),
    ("run_corpus.py", "--fuel"), ("run_axioms.py", "--trials")])
def test_script_nonpositive_counts_exit_two(script, flag, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), flag, "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60)
    assert proc.returncode == 2
    assert flag in proc.stderr
    assert not list(tmp_path.iterdir())
