"""Golden digest of the diagnostics for malformed variants of the bundled specs.

Each bundled spec is broken in three deterministic ways, at every ``K``-th
token (each way at its own phase): the text is cut just before the token,
the token is deleted, or a stray ``$`` is inserted before it.  A variant
gives either a ``ParseError`` or a parsed spec whose ``check_spec``
diagnostics may be empty; the test pins one sha256 per spec over every
variant's ``(type, message, line, col, expected)``.  Check diagnostics are
sorted, since their order follows set iteration, which changes with
``PYTHONHASHSEED``.

A digest changes only when a diagnostic, or where it points, changes; a
refactor of the tokenizer, the parser or the checks must leave all of them
as they are.
"""

import hashlib

import pytest

from adashield.checks import check_spec
from adashield.cli import bundled_spec_path
from adashield.dl.parser import ParseError, tokenize
from adashield.specfile import parse_spec

from conftest import BUNDLED

K = 5

#: recorded at the commit before the one-pass tokenizer; sisyphean's and
#: acas's again when an applied undeclared symbol became a diagnostic, as
#: in the variants whose deleted ``*`` glues ``k*abs(...)`` into
#: ``kabs(...)``
GOLDEN = {
    "sisyphean":
        "d40c916ee94e5503708a750bb3e2041ded9ad3f4c21a05521eff1bde932a2a1b",
    "train_local":
        "97b6b07474ea7a4bce96bf25fe29ffbdc3553a194a80a5ce96b3e73b2e81df95",
    "train_global":
        "683ebfb80409c5231cc0b2e60ca8e6ba76e3e823283ddf32c5bc84011a503eb0",
    "river":
        "094cd4426333171a18ee07240996e41370d62d9f8828389534f443974fda9399",
    "acas":
        "3de7e1d24657e9bef2d8fc0f60f376a8d4e31c744f3b21a069f1b662b111968b",
}


def variants(text: str):
    """The malformed variants of ``text``, in a fixed order."""
    line_start = [0]
    for line in text.split("\n"):
        line_start.append(line_start[-1] + len(line) + 1)
    for i, t in enumerate(tokenize(text)[:-1]):
        at = line_start[t.line - 1] + t.col - 1
        if i % K == 0:
            yield text[:at]
        if i % K == 2:
            yield text[:at] + text[at + len(t.text):]
        if i % K == 4:
            yield text[:at] + "$" + text[at:]


def outcome(text: str, name: str):
    try:
        spec = parse_spec(text, name)
    except ParseError as e:
        return [("ParseError", str(e), e.line, e.col, e.expected)]
    return sorted(("Diagnostic", d.code, d.message) for d in check_spec(spec))


def digest(name: str) -> tuple[int, str]:
    with open(bundled_spec_path(name), encoding="utf-8") as fh:
        text = fh.read()
    h = hashlib.sha256()
    n = 0
    for v in variants(text):
        h.update(repr(outcome(v, name)).encode())
        h.update(b"\n")
        n += 1
    return n, h.hexdigest()


@pytest.mark.parametrize("name", BUNDLED)
def test_diagnostics_digest(name):
    n, got = digest(name)
    assert n > 50
    assert got == GOLDEN[name]
