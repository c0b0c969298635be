"""Abstract syntax for the hybrid-program logic fragment used by shield specs.

Terms, formulas and hybrid programs are immutable trees.  Identifiers carry an
optional index so that history-tagged variables (``x@2``) and schematic index
names (``x@i``) are ordinary variables following a naming convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union


class Ident(NamedTuple):
    name: str
    index: Union[int, str, None] = None

    def __str__(self) -> str:
        if self.index is None:
            return self.name
        return f"{self.name}@{self.index}"


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True, slots=True)
class Lit:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    ident: Ident


@dataclass(frozen=True, slots=True)
class App:
    """Function-symbol application; arity-0 symbols model known constants."""

    func: str
    args: tuple["Term", ...] = ()


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Term"


@dataclass(frozen=True, slots=True)
class Abs:
    arg: "Term"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str
    left: "Term"
    right: "Term"


Term = Union[Lit, Var, App, Neg, Abs, BinOp]


# ---------------------------------------------------------------------------
# Formulas

@dataclass(frozen=True, slots=True)
class Cmp:
    op: str
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class BoolLit:
    value: bool


@dataclass(frozen=True, slots=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Forall:
    var: Ident
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: Ident
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Box:
    prog: "HybridProgram"
    post: "Formula"


@dataclass(frozen=True, slots=True)
class Dia:
    prog: "HybridProgram"
    post: "Formula"


Formula = Union[Cmp, BoolLit, Not, And, Or, Imp, Forall, Exists, Box, Dia]


# ---------------------------------------------------------------------------
# Hybrid programs

@dataclass(frozen=True, slots=True)
class Assign:
    var: Ident
    term: Term


@dataclass(frozen=True, slots=True)
class AssignAny:
    var: Ident


@dataclass(frozen=True, slots=True)
class Test:
    cond: Formula


@dataclass(frozen=True, slots=True)
class ODE:
    """System ``{x1' = e1, ... & Q}`` evolving for a nondeterministic time."""

    eqs: tuple[tuple[Ident, Term], ...]
    domain: Formula


@dataclass(frozen=True, slots=True)
class Choice:
    left: "HybridProgram"
    right: "HybridProgram"


@dataclass(frozen=True, slots=True)
class Seq:
    left: "HybridProgram"
    right: "HybridProgram"


@dataclass(frozen=True, slots=True)
class Loop:
    body: "HybridProgram"


HybridProgram = Union[Assign, AssignAny, Test, ODE, Choice, Seq, Loop]

TRUE = BoolLit(True)


def conj(parts: list[Formula]) -> Formula:
    """Left-folded conjunction; empty list yields ``true``."""
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out
