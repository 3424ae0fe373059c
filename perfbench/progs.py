"""Seeded generator of approxc source programs for the compile workload.

Programs are drawn from the shapes the shipped corpus exercises: nested
real arithmetic under ``lam``/``app``, ``sinr`` (with and without the
sine substitution), ``if`` on constant conditions and on cross
conditions, and closed ``redseq`` reductions with and without
perforation.

One program in OPEN_EVERY is *open*: on top of such a tree it carries
one shape whose rule sets a bound from samples, and which the compiler
may reject today (ROADMAP open item 2).  The shapes take turns:
a cross-condition ``if`` whose branches compute different reals, a
constant condition on literals binary64 does not hold, an ``if`` below
another ``if``, an ``if`` below a let-binding, and a reduction whose
generator mentions an enclosing variable.  The benchmark counts their
compile failures; nothing is filtered out.  In the other programs ``if``
sits only where the corpus puts it, at the top of a lambda body, cross
conditions take the branches of ``corpus/if_cross.ax``, and constant
conditions compare literals binary64 holds exactly.

Each program gets a target size from a fixed ladder, so every seed yields
the same size profile; the seed picks the shapes.  The module has no
dependency on approxc, so its output is plain text the benchmark parses.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

MIN_SIZE = 3
MAX_SIZE = 400
# one program in OPEN_EVERY is open.  Open programs take their sizes
# from a ladder of their own: the sampled rules cost seconds on a few
# hundred nodes, so open programs stay small enough that one cycle of
# the compile workload fits in a run several times
OPEN_EVERY = 16
OPEN_MIN_SIZE = 16
OPEN_MAX_SIZE = 48
OPEN_SHAPES = ("cross", "const", "if_if", "let_if", "red")

_LITS = ("1/2", "3/1", "2/1", "5/4", "1/3", "7/8", "3/2", "1/10", "9/4", "1/1")
# binary64 holds these exactly, so a condition on two of them has zero
# error and takes the cheap agreeing-branches rule, as corpus/if_agree.ax
_DYADIC_LITS = ("1/2", "3/1", "2/1", "5/4", "7/8", "3/2", "9/4", "1/1")
_NON_DYADIC_LITS = ("1/3", "1/10", "2/3", "7/10")
_DIVISORS = ("2/1", "3/1", "5/4", "7/2", "10/1")
# The constructs of an if-free tree, in the proportions every program
# deals them: each program draws from its own shuffled copy of the deck,
# so programs of one size share their construct mix and differ in where
# the constructs sit.  Compile time depends on the mix much more than on
# the placement.
_DECK = ("bin",) * 10 + ("div", "div", "sin", "sin") + ("let",) * 4 + ("red",)
# Open programs deal from a deck without ``sinr``: the sampled rules
# evaluate every branch many times, and the few cards a small program
# draws would make its cost depend on whether it drew a sine
_OPEN_DECK = tuple(c for c in _DECK if c != "sin")
_VAR_NAMES = ("y", "z", "u", "v", "w")


@dataclass
class GenProgram:
    name: str
    src: str
    opts: Dict[str, object] = field(default_factory=dict)
    # the open shape the program carries, "" for none
    shape: str = ""


def size_ladder(count: int, lo: int = MIN_SIZE, hi: int = MAX_SIZE) -> List[int]:
    """Geometric target sizes from ``lo`` to ``hi`` nodes."""
    if count == 1:
        return [hi]
    ratio = (hi / lo) ** (1 / (count - 1))
    return [round(lo * ratio ** k) for k in range(count)]


class _Gen:
    def __init__(self, rng: random.Random, deck: Tuple[str, ...] = _DECK):
        self.rng = rng
        self.full_deck = deck
        self.sites = 0          # redseq sites drawn, in pre-order
        self.perforate: Dict[str, int] = {}
        self.fresh = 0
        self.deck: List[str] = []

    def lit(self) -> str:
        return self.rng.choice(_LITS)

    def var_name(self) -> str:
        name = _VAR_NAMES[self.fresh % len(_VAR_NAMES)] + str(self.fresh)
        self.fresh += 1
        return name

    def leaf(self, scope: Tuple[str, ...]) -> str:
        if scope and self.rng.random() < 0.7:
            return self.rng.choice(scope)
        return self.lit()

    def body(self, size: int, scope: Tuple[str, ...], cond: str) -> str:
        """A lambda body of a program without an open shape: an ``if``
        of kind ``cond`` on top of an ``if``-free tree, where the corpus
        puts it."""
        if cond == "cross" and scope and size >= 14:
            v = self.rng.choice(scope)
            cross = f"(if (leqr {v} {self.lit()}) (*r 2/1 {v}) (+r {v} {v}))"
            return f"(+r {cross} {self.real(size - 12, scope)})"
        if cond != "none" and size >= 8:
            a, b = self.rng.sample(_DYADIC_LITS, 2)
            return self.cond_if(size, scope, f"(leqr {a} {b})", self.real)
        return self.real(size, scope)

    def open_body(self, size: int, scope: Tuple[str, ...], shape: str) -> str:
        """A lambda body of about ``size`` nodes that carries the open
        shape ``shape`` once, at its top."""
        if shape == "cross":
            cond = f"(leqr {self.rng.choice(scope)} {self.lit()})"
            return self.cond_if(size, scope, cond, self.real)
        if shape == "const":
            cond = f"(leqr {self.rng.choice(_NON_DYADIC_LITS)} {self.lit()})"
            return self.cond_if(size, scope, cond, self.real)
        if shape == "if_if":
            a, b = self.rng.sample(_DYADIC_LITS, 2)
            return self.cond_if(size, scope, f"(leqr {a} {b})",
                                lambda n, sc: self.body(n, sc, "const"))
        if shape == "let_if":
            y = self.var_name()
            arg = self.rng.randint(1, max(1, (size - 3) // 3))
            body = self.body(size - 3 - arg, scope + (y,), "const")
            return f"(app (lam ({y} Real) {body}) {self.real(arg, scope)})"
        gen = f"({self.rng.choice(('+r', '*r'))} {self.rng.choice(scope)} (nat2real i))"
        return f"(+r {self.redseq(gen)} {self.real(size - 12, scope)})"

    def cond_if(self, size: int, scope: Tuple[str, ...], cond: str,
                then) -> str:
        """``(if cond then else)``: a ``then`` tree and an ``if``-free
        else tree of about half of ``size`` each."""
        then_n = (size - 4) // 2
        return (f"(if {cond} {then(then_n, scope)} "
                f"{self.real(size - 4 - then_n, scope)})")

    def deal(self) -> str:
        if not self.deck:
            self.deck = list(self.full_deck)
            self.rng.shuffle(self.deck)
        return self.deck.pop()

    def real(self, size: int, scope: Tuple[str, ...]) -> str:
        """An ``if``-free Real expression of roughly ``size`` AST nodes."""
        if size <= 1:
            return self.leaf(scope)
        if size <= 3:
            return self.binary(3, scope)
        kind = self.deal()
        if kind == "div":
            return f"(/r {self.real(size - 2, scope)} {self.rng.choice(_DIVISORS)})"
        if kind == "sin":
            return f"(sinr {self.real(size - 1, scope)})"
        if kind == "let" and size >= 6:
            # let-binding shape: (app (lam (y Real) body) arg)
            y = self.var_name()
            arg = self.rng.randint(1, max(1, (size - 3) // 3))
            body = self.real(size - 3 - arg, scope + (y,))
            return f"(app (lam ({y} Real) {body}) {self.real(arg, scope)})"
        if kind == "red" and size >= 14:
            return f"(+r {self.redseq(self.closed_gen())} {self.real(size - 12, scope)})"
        return self.binary(size, scope)

    def binary(self, size: int, scope: Tuple[str, ...]) -> str:
        # near-balanced splits: the compiler's cost grows with nesting
        # depth, and a uniform split point would make depth, not size,
        # decide how long a program takes to compile
        op = self.rng.choice(("+r", "-r", "*r"))
        left = min(size - 2, max(1, round((size - 1) * self.rng.uniform(0.35, 0.65))))
        return f"({op} {self.real(left, scope)} {self.real(size - 1 - left, scope)})"

    def closed_gen(self) -> str:
        """A reduction generator that mentions only its own index."""
        if self.rng.random() < 0.5:
            return "(nat2real i)"
        a, b = self.rng.randint(1, 3), self.rng.randint(0, 5)
        return f"(nat2real (+n (*n {a} i) {b}))"

    def redseq(self, gen: str) -> str:
        site = f"L{self.sites}"
        self.sites += 1
        n = self.rng.randint(2, 12)
        if self.rng.random() < 0.5:
            self.perforate[site] = 2
        return f"(redseq +r {n} (lam (i Nat) {gen}))"


# Per rung of the ladder, in turn: the conditional on top of the body and
# the program's outer form.  The sampled side conditions of a cross
# condition cost more than the rest of a program put together, so which
# rungs get one is fixed rather than drawn, and so is the sine option.
_CONDS = ("none", "const", "none", "cross")
_FORMS = ("lam", "closed", "lam", "app", "lam", "curried")


def generate(seed: int, count: int) -> List[GenProgram]:
    """``count`` programs on the size ladder, deterministic in ``seed``."""
    out = []
    open_sizes = size_ladder(max(1, count // OPEN_EVERY), OPEN_MIN_SIZE, OPEN_MAX_SIZE)
    for k, target in enumerate(size_ladder(count)):
        rng = random.Random(f"approxc-bench-gen:{seed}:{k}")
        open_rung = k % OPEN_EVERY == OPEN_EVERY - 1
        g = _Gen(rng, _OPEN_DECK if open_rung else _DECK)
        cond = _CONDS[k % len(_CONDS)]
        form = _FORMS[k % len(_FORMS)] if target >= 5 else "closed"
        shape = ""
        if open_rung:
            shape = OPEN_SHAPES[(k // OPEN_EVERY) % len(OPEN_SHAPES)]
            size = open_sizes[k // OPEN_EVERY]
            src = f"(lam (x Real) {g.open_body(size - 1, ('x',), shape)})"
        elif form == "closed":
            src = g.body(target, (), cond)
        elif form == "app":
            src = f"(app (lam (x Real) {g.body(target - 4, ('x',), cond)}) {g.lit()})"
        elif form == "curried":
            src = f"(lam (x Real) (lam (y Real) {g.body(target - 2, ('x', 'y'), cond)}))"
        else:
            src = f"(lam (x Real) {g.body(target - 1, ('x',), cond)})"
        opts: Dict[str, object] = {}
        if "sinr" in src and k % 2:
            opts["subst_sin"] = True
        if g.perforate:
            opts["perforate"] = dict(g.perforate)
        out.append(GenProgram(f"gen{k:03d}", src, opts, shape))
    return out
