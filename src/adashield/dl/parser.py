"""Recursive-descent parser for the ASCII dialect.

Grammar summary (see README for the full table):

* terms:     ``+ - * / ^`` with usual precedence, ``min(a,b)``, ``max(a,b)``,
  ``abs(a)``, ``f(args)``, indexed variables ``x@2`` / ``x@i``
* formulas:  ``= < <= >= >``, ``! & | ->``, ``\\forall x P``, ``\\exists x P``,
  ``[prog] P``, ``<prog> P``, ``true``, ``false``
* programs:  ``x := e``, ``x := *``, ``?(P)``, ``{x' = e, ... & Q}``,
  ``++`` (choice), ``;`` (sequence), ``{ ... }*`` (loop)

``^`` exponents must be natural-number literals.  Given a set of declared
symbols, the parser reads a bare name among them as an arity-0 symbol
application, unless an enclosing quantifier binds that name; a declared
symbol cannot be assigned or evolve.
"""

from __future__ import annotations

import re
from typing import NamedTuple, get_args

from .syntax import (
    Abs, And, App, Assign, AssignAny, BinOp, BoolLit, Box, Choice, Cmp, Dia,
    Exists, Forall, Ident, Imp, Lit, Loop, Neg, Not, ODE, Or, Seq, Term, Test, Var,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0,
                 expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        where = f" at line {line}, column {col}" if line else ""
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message}{where}{hint}")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


#: the most frequent kinds first; no two alternatives match the same text
_TOKEN_RE = re.compile(r"""
    (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ws>[ \t\r]+)
  | (?P<op>:=|\+\+|->|<=|>=|~|[-+*/^(){}\[\];,?!&|'@:<>=])
  | (?P<nl>\n[ \t\r\n]*)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<comment>\#[^\n]*)
  | (?P<quant>\\forall|\\exists)
  | (?P<error>.)
""", re.VERBOSE)

_RESERVED = frozenset({"true", "false", "min", "max", "abs"})

_COMPARISONS = frozenset({"=", "<", "<=", ">=", ">"})
_TERMS = frozenset(get_args(Term))

#: deepest nesting of brackets, unary operators, quantifiers and modalities
#: the parser accepts.  Every cycle of the recursive descent passes through
#: ``Parser.nested``; a few Python frames per level keeps 64 levels well
#: inside the interpreter's recursion limit
MAX_NESTING = 64

#: deepest tree a whole term, formula or program may parse to.  Operator
#: chains add one level per operator without nesting the parser, and the
#: tree walks that follow recurse once per level, so this keeps them inside
#: the interpreter's default recursion limit of 1000
MAX_HEIGHT = 500


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text`` in one pass, then an ``eof`` token."""
    tokens = []
    append = tokens.append
    new = tuple.__new__  # a Token, without the Python-level Token.__new__
    line, line_start = 1, 0  # the offset of the current line's first character
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        start = m.start()
        if kind == "nl":
            raw = m[0]
            line += raw.count("\n")
            line_start = start + raw.rfind("\n") + 1
        elif kind == "error":
            raise ParseError(f"unexpected character {text[start]!r}",
                             line, start - line_start + 1)
        else:
            append(new(Token, (kind, m[0], line, start - line_start + 1)))
    append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class Parser:
    reserved = _RESERVED

    def __init__(self, tokens: list[Token], symbols: set[str] | frozenset[str] = frozenset()):
        #: ends with the ``eof`` token, whose text alone is empty and which
        #: ``next`` never moves past
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        #: names of the declared symbols
        self.symbols = symbols
        #: the variables of the quantifiers open at this token, innermost last
        self.bound: list[Ident] = []
        #: where the content of the innermost bracket in formula position
        #: starts: a term there, followed by ")", may stand for a formula
        self.content_at = None
        #: brackets ``_f_bracket`` read as terms, by position, for ``_atom``
        self.read: dict = {}

    # -- token plumbing ------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.tokens[self.pos]
        if t.text != text:
            raise ParseError(f"unexpected {t.text!r}" if t.kind != "eof" else
                             "unexpected end of input", t.line, t.col, (text,))
        self.pos += 1
        return t

    def listed(self, item) -> tuple:
        """``item()`` once, then again after each ","."""
        out = [item()]
        while self.accept(","):
            out.append(item())
        return tuple(out)

    def fail(self, message: str, *expected: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col, expected)

    def nested(self, parse):
        """``parse()`` one nesting level deeper; a ``ParseError`` past
        ``MAX_NESTING`` levels instead of a ``RecursionError``."""
        if self.depth >= MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def bounded(self, parse):
        """``parse()`` a whole term, formula or program; a ``ParseError`` at
        its first token if the tree is more than ``MAX_HEIGHT`` levels deep."""
        t, start = self.peek(), self.pos
        node = parse()
        # every level of a tree but a leaf spans a token of its own, so only
        # a long expression can be too deep
        if self.pos - start >= MAX_HEIGHT and _deeper_than(node, MAX_HEIGHT):
            raise ParseError(f"expression deeper than {MAX_HEIGHT} levels; "
                             "split long operator chains", t.line, t.col)
        return node

    # -- identifiers ---------------------------------------------------

    def ident(self) -> Ident:
        t = self.peek()
        if t.kind != "ident" or t.text in self.reserved:
            self.fail("expected identifier", "identifier")
        self.next()
        if self.accept("@"):
            it = self.next()
            if it.kind == "number":
                if "." in it.text or "e" in it.text or "E" in it.text:
                    raise ParseError("index must be a natural number", it.line, it.col)
                return Ident(t.text, int(it.text))
            if it.kind == "ident":
                return Ident(t.text, it.text)
            raise ParseError("expected index after '@'", it.line, it.col)
        return Ident(t.text)

    def is_symbol(self, v: Ident) -> bool:
        """Whether ``v``, read here, names a declared symbol: it is bare,
        declared, and no open quantifier binds it."""
        return v.index is None and v.name in self.symbols and v not in self.bound

    def variable(self, verb: str) -> Ident:
        """The identifier a program ``verb``s; a ``ParseError`` at it if it
        names a declared symbol."""
        t = self.peek()
        v = self.ident()
        if self.is_symbol(v):
            raise ParseError(f"cannot {verb} declared symbol {v.name!r}", t.line, t.col)
        return v

    # -- terms -----------------------------------------------------------

    def term(self):
        return self._additive()

    def _additive(self):
        left = self._multiplicative()
        toks = self.tokens
        while True:
            op = toks[self.pos].text
            if op != "+" and op != "-":
                return left
            self.pos += 1
            left = BinOp(op, left, self._multiplicative())

    def _multiplicative(self):
        left = self._unary()
        toks = self.tokens
        while True:
            op = toks[self.pos].text
            if op != "*" and op != "/":
                return left
            self.pos += 1
            left = BinOp(op, left, self._unary())

    def _unary(self):
        if self.accept("-"):
            arg = self.nested(self._unary)
            if type(arg) is Lit:
                return Lit(-arg.value)
            return Neg(arg)
        return self._power()

    def _power(self):
        base = self._atom()
        if self.accept("^"):
            t = self.tokens[self.pos]
            if t.kind != "number" or "." in t.text or "e" in t.text.lower():
                self.fail("exponent must be a natural-number literal", "natural number")
            self.pos += 1
            return BinOp("^", base, Lit(float(int(t.text))))
        return base

    def _atom(self):
        t = self.peek()
        if t.kind == "number":
            self.next()
            return Lit(float(t.text))
        if t.text in ("min", "max"):
            self.next()
            self.expect("(")
            a = self.nested(self.term)
            self.expect(",")
            b = self.nested(self.term)
            self.expect(")")
            return BinOp(t.text, a, b)
        if t.text == "abs":
            self.next()
            self.expect("(")
            a = self.nested(self.term)
            self.expect(")")
            return Abs(a)
        if t.kind == "ident":
            if self.tokens[self.pos + 1].text == "(":
                name = self.next().text
                self.expect("(")
                args = []
                if not self.at(")"):
                    args.append(self.nested(self.term))
                    while self.accept(","):
                        args.append(self.nested(self.term))
                self.expect(")")
                return App(name, tuple(args))
            v = self.ident()
            return App(v.name, ()) if self.is_symbol(v) else Var(v)
        if t.text == "(":
            seen = self.read.pop(self.pos, None)
            if seen is not None:
                self.pos = seen[1]
                return seen[0]
            self.pos += 1
            inner = self.nested(self.term)
            self.expect(")")
            return inner
        self.fail("expected term", "number", "identifier", "(")

    # -- formulas --------------------------------------------------------

    def formula(self):
        # right-associative, folded from a list so that a long chain does
        # not nest
        parts = [self._f_or()]
        while self.accept("->"):
            parts.append(self._f_or())
        return _fold_right(Imp, parts)

    def _f_or(self):
        left = self._f_and()
        while self.accept("|"):
            left = Or(left, self._f_and())
        return left

    def _f_and(self):
        left = self._f_unary()
        while self.accept("&"):
            left = And(left, self._f_unary())
        return left

    def _f_unary(self):
        t = self.peek()
        if t.text == "!":
            self.next()
            return Not(self.nested(self._f_unary))
        if t.kind == "quant":
            self.next()
            v = self.ident()
            self.bound.append(v)
            body = self.nested(self._f_unary)
            self.bound.pop()
            return (Forall if t.text == "\\forall" else Exists)(v, body)
        if t.text == "[":
            self.next()
            prog = self.nested(self.program)
            self.expect("]")
            return Box(prog, self.nested(self._f_unary))
        if t.text == "<":
            self.next()
            prog = self.nested(self.program)
            self.expect(">")
            return Dia(prog, self.nested(self._f_unary))
        if t.text == "true" or t.text == "false":
            # first in a bracket, "true(" starts a term: only terms apply names
            if self.pos != self.content_at or self.tokens[self.pos + 1].text != "(":
                self.pos += 1
                return BoolLit(t.text == "true")
        elif t.text == "(":
            return self._f_bracket()
        return self._comparison()

    def _f_bracket(self):
        """A bracket in formula position, read once, without backtracking.
        Its content is read as a formula in which a term followed by ")" may
        stand first and alone.  Such a term starts the comparison that is
        then read on from the bracket; ``_atom`` takes it from ``read``.  If
        neither reading parses, the error is the one of the reading that
        got further, as reading the bracket as a formula, then as a term,
        would report."""
        p, outer = self.pos, self.content_at
        self.pos = self.content_at = p + 1
        inner = self.nested(self.formula)
        self.content_at = outer
        self.expect(")")
        if type(inner) not in _TERMS:
            return inner
        self.read[p] = (inner, self.pos)
        self.pos = p
        return self._comparison()

    def _comparison(self):
        start = self.pos
        left = self.term()
        t = self.tokens[self.pos]
        if start == self.content_at and (
                t.text not in _COMPARISONS or self.tokens[start].text in ("true", "false")):
            # a term a bracket holds; any token but ")" after it is where both
            # readings fail, and the term reading reports
            self.expect(")")
            self.pos -= 1
            return left
        if t.text in _COMPARISONS:
            self.pos += 1
            return Cmp(t.text, left, self.term())
        self.fail("expected comparison operator", "=", "<", "<=", ">=", ">")

    # -- hybrid programs ---------------------------------------------------

    def program(self):
        # both operators associate to the right; folded from a list so that
        # a long chain does not nest
        parts = [self._p_seq()]
        while self.accept("++"):
            parts.append(self._p_seq())
        return _fold_right(Choice, parts)

    def _p_seq(self):
        parts = [self._p_atom()]
        while self.accept(";"):
            parts.append(self._p_atom())
        return _fold_right(Seq, parts)

    def _p_atom(self):
        t = self.peek()
        if t.text == "?":
            self.next()
            self.expect("(")
            cond = self.nested(self.formula)
            self.expect(")")
            return Test(cond)
        if t.text == "{":
            if self._looks_like_ode():
                return self._ode()
            self.next()
            inner = self.nested(self.program)
            self.expect("}")
            if self.accept("*"):
                return Loop(inner)
            return inner
        if t.kind == "ident" and t.text not in self.reserved:
            v = self.variable("assign to")
            self.expect(":=")
            if self.accept("*"):
                return AssignAny(v)
            return Assign(v, self.term())
        self.fail("expected program", "identifier", "?", "{")

    def _looks_like_ode(self) -> bool:
        # '{' IDENT ['@' idx] "'" ...
        i = self.pos + 1
        toks = self.tokens
        if toks[i].kind != "ident":
            return False
        i += 1
        if toks[i].text == "@" and toks[i + 1].kind != "eof":
            i += 2
        return toks[i].text == "'"

    def _ode(self):
        self.expect("{")
        eqs = []
        while True:
            x = self.variable("evolve")
            self.expect("'")
            self.expect("=")
            eqs.append((x, self.term()))
            if not self.accept(","):
                break
        domain = BoolLit(True)
        if self.accept("&"):
            domain = self.nested(self.formula)
        self.expect("}")
        return ODE(tuple(eqs), domain)


def _fold_right(ctor, parts: list):
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = ctor(p, out)
    return out


def _deeper_than(node, limit: int) -> bool:
    """Whether the syntax tree ``node`` has more than ``limit`` levels,
    found without recursing."""
    stack = [(node, 1)]
    while stack:
        e, d = stack.pop()
        if isinstance(e, tuple):  # App arguments, ODE equations
            stack.extend((x, d) for x in e)
            continue
        fields = getattr(type(e), "__dataclass_fields__", None)
        if fields is None:
            continue
        if d > limit:
            return True
        stack.extend((getattr(e, f), d + 1) for f in fields)
    return False


def _run(text: str, method: str, symbols: frozenset[str]):
    p = Parser(tokenize(text), symbols)
    node = p.bounded(getattr(p, method))
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return node


def parse_term(text: str, symbols: frozenset[str] = frozenset()):
    return _run(text, "term", symbols)


def parse_formula(text: str, symbols: frozenset[str] = frozenset()):
    return _run(text, "formula", symbols)


def parse_program(text: str, symbols: frozenset[str] = frozenset()):
    return _run(text, "program", symbols)
