#!/usr/bin/env python3
"""Run the quantification and approximation axiom suites.

Usage: python scripts/run_axioms.py [--trials N] [--seed S]
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from approxc.cli import positive_int
from approxc.families import FL, check_approx_axioms, fn_family
from approxc.interp import EvalConfig
from approxc.quant import check_quant_axioms, fn_err_instance, q_nonneg_reals


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=positive_int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    cfg = EvalConfig(fuel=200_000, precision_bits=96, max_precision_bits=768)
    reports = [
        check_quant_axioms(q_nonneg_reals(), trials=args.trials, seed=args.seed),
        check_quant_axioms(fn_err_instance(), trials=args.trials, seed=args.seed),
        check_approx_axioms(FL, trials=min(args.trials, 300), seed=args.seed,
                            cfg=cfg),
        check_approx_axioms(fn_family(FL, FL), trials=min(args.trials, 200),
                            seed=args.seed, cfg=cfg),
    ]
    ok = True
    for rep in reports:
        print(rep.to_json())
        ok = ok and rep.ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
