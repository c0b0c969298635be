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
from dataclasses import dataclass

from .syntax import (
    Abs, And, App, Assign, AssignAny, BinOp, BoolLit, Box, Choice, Cmp, Dia,
    Exists, Forall, Ident, Imp, Lit, Loop, Neg, Not, ODE, Or, Seq, Test, Var,
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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<quant>\\forall|\\exists)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|\+\+|->|<=|>=|~|[-+*/^(){}\[\];,?!&|'@:<>=])
""", re.VERBOSE)

_RESERVED = frozenset({"true", "false", "min", "max", "abs"})

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
    tokens = []
    line, col, pos = 1, 1, 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, raw, line, col))
        nl = raw.count("\n")
        if nl:
            line += nl
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class Parser:
    reserved = _RESERVED

    def __init__(self, tokens: list[Token], symbols: set[str] | frozenset[str] = frozenset()):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        #: names of the declared symbols
        self.symbols = symbols
        #: the variables of the quantifiers open at this token, innermost last
        self.bound: list[Ident] = []

    # -- token plumbing ------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            raise ParseError(f"unexpected {t.text!r}" if t.kind != "eof" else
                             "unexpected end of input", t.line, t.col, (text,))
        self.pos += 1
        return t

    def fail(self, message: str, *expected: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col, expected)

    def nested(self, parse):
        """``parse()`` one nesting level deeper; a ``ParseError`` past
        ``MAX_NESTING`` levels instead of a ``RecursionError``."""
        if self.depth >= MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

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
        while True:
            if self.accept("+"):
                left = BinOp("+", left, self._multiplicative())
            elif self.accept("-"):
                left = BinOp("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self):
        left = self._unary()
        while True:
            if self.accept("*"):
                left = BinOp("*", left, self._unary())
            elif self.accept("/"):
                left = BinOp("/", left, self._unary())
            else:
                return left

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
            t = self.peek()
            if t.kind != "number" or "." in t.text or "e" in t.text.lower():
                self.fail("exponent must be a natural-number literal", "natural number")
            self.next()
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
            if self.peek(1).text == "(" and self.peek(1).kind == "op":
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
        if self.accept("("):
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
            try:
                body = self.nested(self._f_unary)
            finally:
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
        if t.text == "true":
            self.next()
            return BoolLit(True)
        if t.text == "false":
            self.next()
            return BoolLit(False)
        if t.text == "(":
            # could be a parenthesised formula or a parenthesised term; if
            # neither reading parses, the one that got further reports
            saved = self.pos
            try:
                self.next()
                inner = self.nested(self.formula)
                self.expect(")")
                return inner
            except ParseError as e:
                failed = e
            self.pos = saved
            try:
                return self._comparison()
            except ParseError as e:
                if (failed.line, failed.col) > (e.line, e.col):
                    raise failed from None
                raise
        return self._comparison()

    def _comparison(self):
        left = self.term()
        t = self.peek()
        if t.text in ("=", "<", "<=", ">=", ">"):
            self.next()
            right = self.term()
            return Cmp(t.text, left, right)
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
        if toks[i].text == "@":
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
