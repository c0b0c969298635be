import random

import pytest

from adashield.dl import (
    Abs, And, BinOp, BoolLit, Cmp, Ident, Imp, Lit, Neg, Not, Or, Var,
)
from adashield.specfile import load_spec
from adashield.cli import bundled_spec_path

BUNDLED = ("sisyphean", "train_local", "train_global", "river", "acas")


@pytest.fixture(scope="session")
def specs():
    return {name: load_spec(bundled_spec_path(name)) for name in BUNDLED}


class TermGen:
    """Seeded random generator for terms/formulas over a small variable pool."""

    def __init__(self, seed: int, variables=("x", "y", "z", "v"), partial_ops=False):
        self.rng = random.Random(seed)
        self.vars = [Ident(v) for v in variables]
        self.partial_ops = partial_ops

    def term(self, depth=3):
        r = self.rng
        if depth == 0 or r.random() < 0.3:
            if r.random() < 0.5:
                return Lit(round(r.uniform(-5, 5), 3))
            return Var(r.choice(self.vars))
        kind = r.random()
        if kind < 0.12:
            inner = self.term(depth - 1)
            # negative literals are normal form; Neg never wraps Lit directly
            if isinstance(inner, Lit):
                return Lit(-inner.value)
            return Neg(inner)
        if kind < 0.24:
            return Abs(self.term(depth - 1))
        ops = ["+", "-", "*", "min", "max"]
        if self.partial_ops:
            ops.append("/")
        op = r.choice(ops)
        if op != "/" and r.random() < 0.1:
            return BinOp("^", self.term(depth - 1), Lit(float(r.randint(0, 3))))
        return BinOp(op, self.term(depth - 1), self.term(depth - 1))

    def formula(self, depth=2):
        r = self.rng
        if depth == 0 or r.random() < 0.4:
            op = r.choice(["=", "<", "<=", ">=", ">"])
            return Cmp(op, self.term(2), self.term(2))
        kind = r.random()
        if kind < 0.15:
            return Not(self.formula(depth - 1))
        if kind < 0.2:
            return BoolLit(r.random() < 0.5)
        ctor = r.choice([And, Or, Imp])
        return ctor(self.formula(depth - 1), self.formula(depth - 1))

    def valuation(self):
        return {v: round(self.rng.uniform(-5, 5), 3) for v in self.vars}
