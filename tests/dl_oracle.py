"""Tree helpers that only tests read: the reference of index-bound
evaluation, and the flattening of a conjunction."""

from adashield.dl import And, Ident, SubstitutionError, Var, ordered_free_vars, substitute


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
