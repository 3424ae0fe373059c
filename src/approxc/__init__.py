"""Approximating compiler with compositional, machine-evaluable error
bounds, plus an interval oracle for validating them."""

from .compiler import CompileOpts, CompileResult, compile_program
from .checker import check_rule_corpus, check_soundness
from .families import appr_member, aeq_check, check_approx_axioms
from .interp import EvalConfig, eval_approx, eval_error, eval_exact
from .parser import parse
from .quant import check_quant_axioms
from .syntax import to_source

__version__ = "0.1.0"
