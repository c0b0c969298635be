"""Golden digests of the load-time front end on the bundled specs.

Each bundled spec is parsed, and the test pins three sha256 digests: of its
sections as printed text, of the ``repr`` of each section's tree (which
tells a symbol application ``App('A', ())`` from a variable ``A`` where the
printed text does not), and of its emitted obligation files, with and
without the invariant-monotonicity obligations.  ``repr(spec)`` itself is
not hashed: ``state_vars`` is a frozenset, whose order changes with
``PYTHONHASHSEED``; the state variables are hashed sorted instead.

A digest changes only when a parsed tree or an emitted file changes; a
refactor of the parser, the checks or the obligation generator must leave
all of them as they are.

Two more digests pin the tree walks the front end is built on: per bundled
spec, the free variables and the applied symbols, each in order of first
occurrence, of every tree of ``spec.nodes()`` and of every obligation
formula; and the results of re-indexing (``tag_with_index`` and
``instantiate_indices``) on seeded ``TermGen`` trees that apply symbols and
carry indexed variables, errors included.
"""

import hashlib
import os

import pytest

from adashield.dl import (
    App, Ident, SubstitutionError, Var, free_vars_and_symbols, ordered_free_vars,
    parse_term, pretty_print, substitute, tag_with_index,
)
from adashield.obligations import emit_obligation_files, gen_obligations

from conftest import BUNDLED, TermGen
from dl_oracle import instantiate_indices

#: recorded at the commit before symbols were resolved while parsing
GOLDEN = {
    "sisyphean": {
        "sections":
            "f6783a9a9eae482b39c9ab77e1d5878a6a25673a2c2916a67ff64ad59c849d3d",
        "trees":
            "445c286b2e2dd558f6eb86fadfe3714db08dda29cdc662c2005e97ec734506b2",
        "obligations":
            "3d4bada8cc410490580f23a1e9c4443e77cc165afa5c715db3da71ca99fa6d6f",
        "obligations_invariant_monotone":
            "3d4bada8cc410490580f23a1e9c4443e77cc165afa5c715db3da71ca99fa6d6f",
    },
    "train_local": {
        "sections":
            "59ea2b91fb82fcfbec9cc9b831471cf62ffff579c84493f62a1d46cac385ba62",
        "trees":
            "fb67fff7775e96c6482682299cc7845007f5bf9c96a0927878694b3c2c7e9274",
        "obligations":
            "536a5ace7808b030411b694bd07d6ddf6e0df1ed9e9387a69f62bb5ee4ff8cd0",
        "obligations_invariant_monotone":
            "536a5ace7808b030411b694bd07d6ddf6e0df1ed9e9387a69f62bb5ee4ff8cd0",
    },
    "train_global": {
        "sections":
            "0842fbaed76b71d4175c009e084640060c56cfab8b4dad6769f01a275c66ee7b",
        "trees":
            "4690cb27c13d75b39a61228aff4dbd4dbbe530c9d427331a04d50a244d3629fa",
        "obligations":
            "1024ec0a863767507073a243e0e8fafa2f3a2c2ebd513d4315f37566c037f248",
        "obligations_invariant_monotone":
            "eb91c9e428189d178efcfdb5470ad6b0b3c7cdf51f6343b60021518342e385a7",
    },
    "river": {
        "sections":
            "59dac249e4e3a5430f173c44fa05fe470de558857edacbbe52fa27ffb830bbe1",
        "trees":
            "79490b66115353861095eb596412132883ba80310d933f6355022c7ccc8b3660",
        "obligations":
            "e7533dce32c021baf7715fdff79db0919c0c8b997c722ed9a566e2e008d2d2a0",
        "obligations_invariant_monotone":
            "cecede3f7243e4b07b65ce43df4175bee2454c4d3c9aff51221718b9c6688a81",
    },
    "acas": {
        "sections":
            "7127decdb705855e79f3fe7bc0502b52bb824368ff1583a7532fc4e7376ee694",
        "trees":
            "a0f25a35799428fc3401dd6a60b9641770225b6096e1f705ce3931136b89eb7a",
        "obligations":
            "fc8cb7e0ae61059cb165d3021250339937c8925ff66edeaba3c2c16b7d0e9327",
        "obligations_invariant_monotone":
            "579fd5dbdebddac4b52cbd53dfe24ec35ca4556d8e57cbfa75a23c693775cf24",
    },
}


def _sections(spec) -> list[tuple[str, object]]:
    """``(label, tree)`` for every item of every section, in file order;
    the label carries what the tree does not."""
    out = [("constant " + ", ".join(spec.consts), None),
           ("unknown " + ", ".join(f"{n}/{a}" for n, a in spec.unknowns), None)]
    out += [("assume", f) for f in spec.assumptions]
    out += [(f"bound {b.param} {b.direction} {b.locality}", b.formula)
            for b in spec.bounds]
    out += [("controller", spec.ctrl), ("plant", spec.plant),
            ("safe", spec.safe), ("invariant", spec.invariant)]
    for n in spec.noise:
        out += [(f"noise {n.var} {n.dist.kind}", t) for t in n.dist.params]
    out += [(f"observe {o.var}", o.definition) for o in spec.obs]
    for k, (guard, template) in enumerate(spec.fallback.cases if spec.fallback else ()):
        out.append((f"fallback {k} when", guard))
        out += [(f"fallback {k} {d if isinstance(d, str) else 'term'}",
                 None if isinstance(d, str) else d) for d in template]
    out += [(f"initial {p}", t) for p, t in (spec.initial_global_bounds or {}).items()]
    for a in spec.infer:
        body = a.body
        kind = f"{type(body).__name__} {','.join(getattr(body, 'indices', ()))}"
        terms = ([body.term] if hasattr(body, "term")
                 else [body.observable, body.noise])
        out += [(f"infer {a.target} {kind}", t) for t in terms]
        out.append((f"infer {a.target} when", a.guard))
    out.append(("state " + ", ".join(sorted(map(str, spec.state_vars))), None))
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(spec, tmp_path) -> dict[str, str]:
    sections = _sections(spec)
    out = {
        "sections": _sha("\n".join(
            label if node is None else f"{label}: {pretty_print(node)}"
            for label, node in sections)),
        "trees": _sha("\n".join(repr(node) for _, node in sections)),
    }
    for key, mono in (("obligations", False), ("obligations_invariant_monotone", True)):
        paths = emit_obligation_files(gen_obligations(spec, mono),
                                      tmp_path / key, spec)
        h = hashlib.sha256()
        for path in paths:
            with open(path, "rb") as fh:
                h.update(os.path.basename(path).encode() + b"\0" + fh.read() + b"\0")
        out[key] = h.hexdigest()
    return out


@pytest.mark.parametrize("name", BUNDLED)
def test_front_end_digests(specs, tmp_path, name):
    assert _digests(specs[name], tmp_path) == GOLDEN[name]


#: ``_tree_facts`` per bundled spec, recorded before the symbol walk was
#: folded into the free-variable walk
GOLDEN_TREE_FACTS = {
    "sisyphean": "e5a30c92db947438e025fd1230f52a7b72f313b07a2ab0337a34a24a7e91e4fd",
    "train_local": "bfc1d101e99052a1d623fd2ca2bf61be9d4a5e14af183b69c171ca5d279556b1",
    "train_global": "ee2f05fa91cd2f70cc00346fca7bd2029cd90fc3f2159d0474df3e1e1b400d9f",
    "river": "f37c9a930885e0393eb345493441b8f80164720d95cdd1abb0e08f0b9bd45368",
    "acas": "f7a974a6c9ebc0ac5b80edbe9d5df678f0451fc977247d0f69fcfa6735687d9d",
}

#: ``_reindexed``, recorded before re-indexing went through ``substitute``
GOLDEN_REINDEXED = "d55883cd97e7b904419e979dad63904b4520777df5b337e15437ccf80437da4c"


def _tree_facts(spec) -> str:
    """The free variables and applied symbols of every tree of the spec and
    of every obligation formula, in order."""
    trees = list(spec.nodes()) + [ob.formula for ob in gen_obligations(spec, True)]
    return _sha("\n".join(f"{ordered_free_vars(t)!r} {free_vars_and_symbols(t)[1]!r}" for t in trees))


def _reindex_cases():
    """Seeded terms and formulas in x, y, z, v, with ``y`` read at ``i``, ``z``
    replaced by ``f(x@j, w)`` and ``v`` by the constant ``c``; every third
    tree keeps its variables unindexed."""
    gen = TermGen(seed=23)
    indexed = {Ident("y"): Var(Ident("y", "i")),
               Ident("z"): App("f", (Var(Ident("x", "j")), Var(Ident("w")))),
               Ident("v"): App("c", ())}
    plain = {Ident("z"): App("f", (Var(Ident("x")), Var(Ident("w")))),
             Ident("v"): App("c", ())}
    for k in range(120):
        tree = gen.term(3) if k % 2 else gen.formula(2)
        yield substitute(tree, plain if k % 3 == 0 else indexed)


def _reindexed() -> str:
    lines = []
    for tree in _reindex_cases():
        for label, f in (("tag i", lambda t: tag_with_index(t, "i")),
                         ("tag 3", lambda t: tag_with_index(t, 3)),
                         ("inst i,j", lambda t: instantiate_indices(t, ["i", "j"], [2, 5])),
                         ("inst j", lambda t: instantiate_indices(t, ["j"], [4]))):
            try:
                lines.append(f"{label}: {f(tree)!r}")
            except SubstitutionError as e:
                lines.append(f"{label}: SubstitutionError: {e}")
    return _sha("\n".join(lines))


@pytest.mark.parametrize("name", BUNDLED)
def test_tree_fact_digests(specs, name):
    assert _tree_facts(specs[name]) == GOLDEN_TREE_FACTS[name]


def test_reindexing_digest():
    assert _reindexed() == GOLDEN_REINDEXED


def test_conflicting_index_names_the_first_conflicting_variable():
    with pytest.raises(SubstitutionError) as err:
        tag_with_index(parse_term("w + x@i + f(y@j) + x@i", frozenset({"f"})), "j")
    assert str(err.value) == "variable x@i already carries a conflicting index"
