"""Parsing of ``.shield`` specification files.

A file consists of up to thirteen keyword-introduced sections in a fixed
order (each at most once)::

    constant unknown assume bound controller plant safe invariant
    noise observe fallback initial infer

``#`` starts a line comment; layout is otherwise free.  Names declared under
``constant`` and ``unknown`` are treated as function symbols everywhere below
their declaration; all other names are variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from .dl import (
    BoolLit, Cmp, Formula, HybridProgram, Ident, Term, Var, free_vars_and_symbols,
)
from .dl.parser import ParseError, Parser, tokenize, _RESERVED
from .strategy import (
    Aggregate, Best, Direct, DistExpr, InferAssign, InferenceStrategy,
)

SECTION_ORDER = (
    "constant", "unknown", "assume", "bound", "controller", "plant", "safe",
    "invariant", "noise", "observe", "fallback", "initial", "infer",
)

_SPEC_KEYWORDS = frozenset(SECTION_ORDER) | frozenset(
    {"best", "aggregate", "when", "and", "left", "right", "else", "up", "lo"})


@dataclass(frozen=True)
class BoundDecl:
    param: Ident
    direction: str  # 'up' | 'lo'
    formula: Formula
    locality: str = ""  # 'local' | 'global', filled in by classification


@dataclass(frozen=True)
class NoiseDecl:
    var: Ident
    dist: DistExpr


@dataclass(frozen=True)
class ObsDecl:
    var: Ident
    definition: Term


#: one directive per nondeterministic site, in pre-order: a branch side for
#: every choice, a term for every unconstrained assignment
FallbackTemplate = tuple[Union[str, Term], ...]


@dataclass(frozen=True)
class FallbackDecl:
    """Guarded templates tried in order; the final case must be unguarded."""

    cases: tuple[tuple[Optional[Formula], FallbackTemplate], ...]


@dataclass
class ShieldSpec:
    name: str
    consts: tuple[str, ...]
    unknowns: tuple[tuple[str, int], ...]
    assumptions: tuple[Formula, ...]
    bounds: tuple[BoundDecl, ...]
    ctrl: HybridProgram
    plant: HybridProgram
    safe: Formula
    invariant: Formula
    noise: tuple[NoiseDecl, ...]
    obs: tuple[ObsDecl, ...]
    fallback: Optional[FallbackDecl]
    initial_global_bounds: Optional[dict[Ident, Term]]
    infer: InferenceStrategy
    source_text: str = ""
    state_vars: frozenset[Ident] = frozenset()
    #: by identity, each tree with its free variables and its applied
    #: ``(symbol, arity)`` pairs, both in first-occurrence order
    walks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.state_vars = self._infer_state_vars()
        by_state = self._classify()
        self.bounds = tuple(
            BoundDecl(b.param, b.direction, b.formula,
                      "local" if by_state[b.param] else "global")
            for b in self.bounds)

    # -- derived views, each computed once: the ones that read a bound's
    # locality must not be read before ``__post_init__`` classifies it ------

    @cached_property
    def param_idents(self) -> tuple[Ident, ...]:
        return tuple(b.param for b in self.bounds)

    @cached_property
    def directions(self) -> dict[Ident, str]:
        return {b.param: b.direction for b in self.bounds}

    @cached_property
    def bound_formulas(self) -> dict[Ident, Formula]:
        return {b.param: b.formula for b in self.bounds}

    @cached_property
    def local_params(self) -> tuple[Ident, ...]:
        return tuple(b.param for b in self.bounds if b.locality == "local")

    @cached_property
    def global_params(self) -> tuple[Ident, ...]:
        return tuple(b.param for b in self.bounds if b.locality == "global")

    @cached_property
    def obs_names(self) -> frozenset[str]:
        return frozenset(o.var.name for o in self.obs)

    @cached_property
    def noise_names(self) -> frozenset[str]:
        return frozenset(n.var.name for n in self.noise)

    @cached_property
    def noise_decls(self) -> dict[str, DistExpr]:
        return {n.var.name: n.dist for n in self.noise}

    @cached_property
    def obs_defs(self) -> dict[str, Term]:
        return {o.var.name: o.definition for o in self.obs}

    @cached_property
    def symbol_arities(self) -> dict[str, int]:
        """Arity of every declared symbol: an unknown's, 0 for a constant."""
        return {**dict(self.unknowns), **{c: 0 for c in self.consts}}

    def nodes(self):
        """Every term, formula and program of the spec."""
        yield self.ctrl
        yield self.plant
        yield self.safe
        yield self.invariant
        yield from self.assumptions
        for b in self.bounds:
            yield b.formula
        for o in self.obs:
            yield o.definition
        for n in self.noise:
            yield from n.dist.params
        for a in self.infer:
            yield a.guard
            yield from a.terms
        for guard, template in self.fallback.cases if self.fallback else ():
            if guard is not None:
                yield guard
            yield from (d for d in template if not isinstance(d, str))
        yield from (self.initial_global_bounds or {}).values()

    def free_vars(self, *nodes) -> list[Ident]:
        """``dl.ordered_free_vars(*nodes)``, walking each tree once per spec."""
        return self._walked(nodes, 1)

    def symbols(self, *nodes) -> list[tuple[str, int]]:
        """The ``dl.symbols`` of ``nodes`` in turn, from the walk that gives
        their free variables."""
        return self._walked(nodes, 2)

    def _walked(self, nodes, k: int) -> list:
        """Part ``k`` of each node's walk (1: free variables, 2: symbols),
        merged in order; a node is walked on its first request only."""
        out: dict = {}
        for node in nodes:
            seen = self.walks.get(id(node))
            if seen is None or seen[0] is not node:
                seen = self.walks[id(node)] = (node, *free_vars_and_symbols(node))
            out.update(dict.fromkeys(seen[k]))
        return list(out)

    def _infer_state_vars(self) -> frozenset[Ident]:
        special = (frozenset(str(p) for p in (b.param for b in self.bounds))
                   | self.obs_names | self.noise_names)
        out = set()
        for ident in self.free_vars(*self.nodes()):
            if ident.name in special:
                continue
            out.add(Ident(ident.name))
        return frozenset(out)

    def _classify(self) -> dict[Ident, bool]:
        state_names = {v.name for v in self.state_vars}
        out = {}
        for b in self.bounds:
            fv = self.free_vars(b.formula)
            out[b.param] = any(v.name in state_names and v != b.param for v in fv)
        return out


class _SpecParser(Parser):
    reserved = _RESERVED | _SPEC_KEYWORDS

    def at_section(self) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text in SECTION_ORDER

    def done(self) -> bool:
        return self.peek().kind == "eof" or self.at_section()


def parse_spec(text: str, name: str = "spec") -> ShieldSpec:
    """Parse a complete ``.shield`` document."""
    tokens = tokenize(text)
    p = _SpecParser(tokens, set())

    sections: dict[str, None] = {}
    parts: dict = {
        "constant": (), "unknown": (), "assume": (), "bound": (),
        "controller": None, "plant": None, "safe": None, "invariant": None,
        "noise": (), "observe": (), "fallback": None, "initial": None,
        "infer": (),
    }

    last_rank = -1
    while p.peek().kind != "eof":
        t = p.peek()
        if not p.at_section():
            raise ParseError(f"expected a section keyword, got {t.text!r}",
                             t.line, t.col, SECTION_ORDER)
        section = t.text
        rank = SECTION_ORDER.index(section)
        if section in sections:
            raise ParseError(f"duplicate section {section!r}", t.line, t.col)
        if rank < last_rank:
            raise ParseError(
                f"section {section!r} out of order (must follow the order "
                f"{', '.join(SECTION_ORDER)})", t.line, t.col)
        sections[section] = None
        last_rank = rank
        p.next()
        parts[section] = _SECTION_PARSERS[section](p)

    for required in ("controller", "plant", "safe", "invariant"):
        if required not in sections:
            raise ParseError(f"missing required section {required!r}")

    return ShieldSpec(
        name=name,
        consts=parts["constant"],
        unknowns=parts["unknown"],
        assumptions=parts["assume"],
        bounds=parts["bound"],
        ctrl=parts["controller"],
        plant=parts["plant"],
        safe=parts["safe"],
        invariant=parts["invariant"],
        noise=parts["noise"],
        obs=parts["observe"],
        fallback=parts["fallback"],
        initial_global_bounds=parts["initial"],
        infer=parts["infer"],
        source_text=text,
    )


def load_spec(path) -> ShieldSpec:
    import os
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    base = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_spec(text, name=base)


# -- section payload parsers -------------------------------------------------

def _parse_constants(p: _SpecParser):
    names = p.listed(lambda: p.ident().name)
    p.symbols.update(names)
    return names


def _parse_unknowns(p: _SpecParser):
    def unknown():
        name = p.ident().name
        if not p.accept("("):
            return name, 0
        arity = len(p.listed(lambda: p.expect("*")))
        p.expect(")")
        return name, arity

    out = p.listed(unknown)
    p.symbols.update(n for n, _ in out)
    return out


def _parse_assume(p: _SpecParser):
    return p.listed(lambda: p.bounded(p.formula))


def _parse_bounds(p: _SpecParser):
    def bound():
        param = p.ident()
        direction = p.next().text if p.at("up") or p.at("lo") else None
        p.expect(":")
        formula = p.bounded(p.formula)
        if direction is None:
            direction = _infer_direction(param, formula)
            if direction is None:
                raise ParseError(
                    f"bound direction for {param} is not inferrable; "
                    "annotate it with 'up' or 'lo'")
        return BoundDecl(param, direction, formula)

    return p.listed(bound)


def _infer_direction(param: Ident, formula) -> Optional[str]:
    if not isinstance(formula, Cmp) or formula.op not in ("<=", ">=", "<", ">"):
        return None
    le = formula.op in ("<=", "<")
    if formula.left == Var(param):
        return "lo" if le else "up"
    if formula.right == Var(param):
        return "up" if le else "lo"
    return None


def _parse_noise(p: _SpecParser):
    def noise():
        v = p.ident()
        p.expect("~")
        kind_tok = p.next()
        kinds = {"N": "normal", "U": "uniform", "B": "bernoulli"}
        if kind_tok.text not in kinds:
            raise ParseError("expected a distribution N(..), U(..) or B(..)",
                             kind_tok.line, kind_tok.col)
        p.expect("(")
        params = p.listed(lambda: p.bounded(p.term))
        p.expect(")")
        kind = kinds[kind_tok.text]
        want = 1 if kind == "bernoulli" else 2
        if len(params) != want:
            raise ParseError(f"{kind_tok.text}(..) takes {want} parameter(s)",
                             kind_tok.line, kind_tok.col)
        return NoiseDecl(v, DistExpr(kind, params))

    return p.listed(noise)


def _parse_defined(p: _SpecParser):
    """``v = term`` pairs, for ``observe`` and ``initial``."""
    def defined():
        v = p.ident()
        p.expect("=")
        return v, p.bounded(p.term)

    return p.listed(defined)


def _parse_fallback(p: _SpecParser):
    cases = []
    while p.accept("when"):
        guard = p.bounded(p.formula)
        p.expect(":")
        cases.append((guard, _parse_template(p)))
    if cases:
        p.expect("else")
        p.expect(":")
    cases.append((None, _parse_template(p)))
    return FallbackDecl(tuple(cases))


def _parse_template(p: _SpecParser) -> FallbackTemplate:
    return p.listed(lambda: p.next().text if p.at("left") or p.at("right")
                    else p.bounded(p.term))


def _parse_infer(p: _SpecParser) -> InferenceStrategy:
    out: list[InferAssign] = []
    while True:
        targets = p.listed(p.ident)
        p.expect(":=")
        body = _parse_infer_body(p)
        guard: Formula = BoolLit(True)
        if p.accept("when"):
            guard = p.bounded(p.formula)
        # merged-assignment sugar expands into one assignment per target
        for tgt in targets:
            out.append(InferAssign(tgt, body, guard))
        if not p.accept(";"):
            break
        if p.done():
            break
    return tuple(out)


def _parse_infer_body(p: _SpecParser):
    if p.accept("best"):
        idx = _parse_index_names(p)
        p.expect(":")
        return Best(idx, p.bounded(p.term))
    if p.accept("aggregate"):
        idx = _parse_index_names(p)
        p.expect(":")
        observable = p.bounded(p.term)
        p.expect("and")
        noise = p.bounded(p.term)
        return Aggregate(idx, observable, noise)
    return Direct(p.bounded(p.term))


def _parse_index_names(p: _SpecParser) -> tuple[str, ...]:
    names = p.listed(p.ident)
    for n in names:
        if n.index is not None:
            raise ParseError(f"index name {n} must be unindexed")
    return tuple(n.name for n in names)


_SECTION_PARSERS = {
    "constant": _parse_constants,
    "unknown": _parse_unknowns,
    "assume": _parse_assume,
    "bound": _parse_bounds,
    "controller": lambda p: p.bounded(p.program),
    "plant": lambda p: p.bounded(p.program),
    "safe": lambda p: p.bounded(p.formula),
    "invariant": lambda p: p.bounded(p.formula),
    "noise": _parse_noise,
    "observe": lambda p: tuple(ObsDecl(v, t) for v, t in _parse_defined(p)),
    "fallback": _parse_fallback,
    "initial": lambda p: dict(_parse_defined(p)),
    "infer": _parse_infer,
}
