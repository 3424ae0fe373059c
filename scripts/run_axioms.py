#!/usr/bin/env python3
"""Run the quantification and approximation axiom suites.

Usage: python scripts/run_axioms.py [--trials N] [--seed S]
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from approxc.cli import axiom_reports, positive_int
from approxc.interp import EvalConfig


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=positive_int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    cfg = EvalConfig(fuel=200_000, precision_bits=96, max_precision_bits=768)
    ok = True
    for rep in axiom_reports(args.trials, args.seed, cfg).values():
        print(rep.to_json())
        ok = ok and rep.ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
