"""Helpers that only tests read: the reference of index-bound evaluation,
the flattening of a conjunction, a dict as the valuation of a step, a best
window run one SBI per entry, and a shield's code with the reference
evaluators in place of the generated ones."""

import math

from adashield.dl import (
    UNDEF, And, Ident, SubstitutionError, Var, ordered_free_vars, substitute,
)
from adashield import actions, strategy
from adashield.runtime import AssignmentRecord
from adashield.strategy import BOTTOM, Bound, DictValuation, _eval_bound


def instantiate_indices(e, names: list[str], values: list[int]):
    """Re-index every variable whose symbolic index appears in ``names``."""
    if len(names) != len(values):
        raise SubstitutionError("index name/value length mismatch")
    m = dict(zip(names, values))
    return substitute(e, {v: Var(Ident(v.name, m[v.index])) for v in ordered_free_vars(e)
                          if isinstance(v.index, str) and v.index in m})


def conjuncts(f) -> list:
    """Flatten nested conjunctions into a list (associativity-insensitive)."""
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    return [f]


class AtStep(DictValuation):
    """A dict as the valuation of step ``n``: ``x@n`` reads ``x``, as in
    ``runtime.StepValuation``, so that an entry at ``n`` reads the target as
    the entries before it left it."""

    __slots__ = ("n",)

    def __init__(self, values: dict, n: int):
        super().__init__(values)
        self.n = n

    def at(self, key, i):
        return self.current.get((key[0], None if i == self.n else i), UNDEF)

    obs = at


def per_entry_window(t, js, val, interp, ledger) -> list:
    """The direct or best template ``t`` run over the window ``js`` as the
    budget loop runs one SBI per entry: per index tuple an add of 0.0 to
    ``ledger``, the reference evaluation, the target tightened in
    ``val.current``, and a record of its own.  The records, in order."""
    a = t.assign
    name, up = str(a.target), t.tail == "up"
    pos = {n: k for k, n in enumerate(t.names)}
    out = []
    for j in js:
        ledger.add(0.0)
        r = _eval_bound(a.guard, a.body.term, interp, Bound(val, pos, j))
        if r is BOTTOM or not math.isfinite(r):
            out.append(AssignmentRecord(name, 0.0, False, True, False, None))
            continue
        cur = val.current.get(a.target)
        tighter = cur is None or (r < cur if up else r > cur)
        if tighter:
            val.current[a.target] = r
        out.append(AssignmentRecord(name, 0.0, False, False, tighter, None))
    return out


def reference_code(shield):
    """``shield.code`` with the reference evaluators in place of the
    generated ones, which walk the trees under the shield's constants:
    ``strategy.interpreted`` for each template and ``actions.interpreted``
    for the controller and its fallback."""
    spec, code = shield.spec, shield.code
    return code._replace(
        templates={t: strategy.interpreted(t, shield.interp) for t in code.templates},
        ctrl=actions.interpreted(spec.ctrl, spec.fallback, shield.interp))
