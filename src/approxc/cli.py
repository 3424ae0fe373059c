"""Command-line front end: parse -> compile -> emit -> check.

Outputs are deterministic for fixed inputs, flags, and seed; all
machine-readable output under --json is newline-delimited JSON with a
schema field.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checker import check_soundness
from .compiler import (
    CompileError, CompileOpts, compile_program, label_sites, nesting_guarded,
)
from .families import FL, check_approx_axioms, fn_family
from .interp import EvalConfig
from .parser import ParseError, parse
from .quant import check_quant_axioms, fn_err_instance, q_nonneg_reals
from .syntax import to_source
from .typecheck import TypeError_


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="approxc",
        description="approximating compiler with validated error bounds")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, samples: bool):
        if samples:
            sp.add_argument("--trials", type=positive_int, default=1000)
            sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--precision-bits", type=positive_int, default=128)
        sp.add_argument("--fuel", type=positive_int, default=10**6)
        sp.add_argument("--out", type=str, default=None,
                        help="output directory (default: next to the input)")
        sp.add_argument("--json", action="store_true",
                        help="newline-delimited JSON on stdout")

    for name in ("compile", "check"):
        sp = sub.add_parser(name)
        sp.add_argument("inputs", nargs="+")
        sp.add_argument("--perforate", action="append", default=[],
                        metavar="SITE=K",
                        help="perforate a labeled reduction site (repeatable)")
        sp.add_argument("--subst-sin", action="store_true")
        sp.add_argument("--weaken-to", type=str, default=None,
                        help="surface-syntax error expression to weaken to")
        sp.add_argument("--emit", choices=["approx", "err", "derivation", "all"],
                        default="all")
        common(sp, samples=name == "check")

    sp = sub.add_parser("axioms")
    common(sp, samples=True)
    return p


def _parse_perforation(items) -> dict:
    out = {}
    for it in items:
        if "=" not in it:
            raise ValueError(f"--perforate expects SITE=K, got {it!r}")
        site, k = it.split("=", 1)
        out[site.strip()] = int(k)
    return out


def _opts_from_args(args) -> CompileOpts:
    cfg = EvalConfig(fuel=args.fuel, precision_bits=args.precision_bits)
    try:
        weaken = parse(args.weaken_to) if args.weaken_to else None
    except ParseError as ex:
        raise ValueError(f"--weaken-to: ParseError: {ex}") from None
    return CompileOpts(
        enable_sin_subst=args.subst_sin,
        perforation=_parse_perforation(args.perforate),
        weaken_to=weaken,
        cfg=cfg,
    )


def _emit(args, path: Path, name: str, text: str):
    out_dir = Path(args.out) if args.out else path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    target.write_text(text + ("\n" if not text.endswith("\n") else ""))
    return target


def _texts(emit: str, stem: str, result) -> dict:
    """File name and text of each emitted output, by kind.  Printing
    recurses as deep as compiling, so it runs under the same guard.  The
    outputs share subterms, so they print through one memo."""
    def render() -> dict:
        out, memo = {}, {}
        if emit in ("approx", "all"):
            out["approx"] = (f"{stem}.approx.ax", to_source(result.approx, memo))
        if emit in ("err", "all"):
            out["err"] = (f"{stem}.err.ax", to_source(result.err, memo))
        if emit in ("derivation", "all"):
            out["derivation"] = (f"{stem}.derivation.json",
                                 result.derivation_json(memo))
        return out
    return nesting_guarded(render)


def _jsonl(args, doc: dict):
    if args.json:
        print(json.dumps(doc, sort_keys=True))


def _run_compile(args, do_check: bool) -> int:
    opts = _opts_from_args(args)
    cfg = opts.cfg
    status = 0
    for inp in args.inputs:
        path = Path(inp)
        try:
            src = path.read_text()
        except OSError as ex:
            print(f"approxc: cannot read {inp}: {ex}", file=sys.stderr)
            return 2
        try:
            e = parse(src)
            result = compile_program(e, opts)
            texts = _texts(args.emit, path.stem, result)
            sites = nesting_guarded(lambda: label_sites(e))
        except (ParseError, CompileError, TypeError_) as ex:
            print(f"approxc: {inp}: {type(ex).__name__}: {ex}", file=sys.stderr)
            return 2
        stem = path.stem
        emitted = {kind: str(_emit(args, path, name, text))
                   for kind, (name, text) in texts.items()}
        _jsonl(args, {"schema": "compile/v1", "input": str(path),
                      "emitted": emitted,
                      "sites": {lbl: src_ for lbl, src_ in sites}})
        if not args.json:
            print(f"compiled {inp}" +
                  (f" (sites: {', '.join(l for l, _ in sites)})" if sites else ""))
        if do_check:
            rep = check_soundness(e, result, trials=args.trials,
                                  seed=args.seed, cfg=cfg, program=path.name)
            t = _emit(args, path, f"{stem}.report.json", rep.to_json())
            _jsonl(args, rep.to_doc())
            if not args.json:
                print(f"checked {inp}: {rep.passes}/{rep.trials} passes, "
                      f"{len(rep.failures)} failures, "
                      f"{rep.inconclusive} inconclusive")
            if rep.failures:
                status = 1
            elif rep.passes == 0 and status == 0:
                status = 3  # every trial inconclusive
    return status


def axiom_reports(trials: int, seed: int, cfg: EvalConfig) -> dict:
    """Each axiom suite's report, by name: the quantification axioms of
    scalar and of function errors, then the approximation axioms at Fl and
    at Fl -> Fl, which evaluate under cfg."""
    def approx(fam, most):
        return check_approx_axioms(fam, trials=min(trials, most), seed=seed,
                                   cfg=cfg)
    return {"quant_scalar": check_quant_axioms(q_nonneg_reals(), trials, seed),
            "quant_fn": check_quant_axioms(fn_err_instance(), trials, seed),
            "approx_fl": approx(FL, 300),
            "approx_flfl": approx(fn_family(FL, FL), 200)}


def _run_axioms(args) -> int:
    cfg = EvalConfig(fuel=args.fuel, precision_bits=args.precision_bits)
    reports = axiom_reports(args.trials, args.seed, cfg)
    ok = True
    for rep in reports.values():
        if args.json:
            print(rep.to_json())
        else:
            mark = "ok" if rep.ok else "FAILED"
            print(f"{rep.instance}: {mark}")
            for r in rep.results:
                line = f"  {r.name}: {r.status}"
                if r.witness:
                    line += f" (witness {r.witness})"
                print(line)
        ok = ok and rep.ok
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, rep in reports.items():
            (out_dir / f"axioms.{name}.json").write_text(rep.to_json() + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compile":
            return _run_compile(args, do_check=False)
        if args.command == "check":
            return _run_compile(args, do_check=True)
        if args.command == "axioms":
            return _run_axioms(args)
    except ValueError as ex:
        print(f"approxc: {ex}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
