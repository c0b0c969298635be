from .syntax import (
    Abs, And, App, Assign, AssignAny, BinOp, BoolLit, Box, Choice, Cmp, Dia,
    Exists, Forall, Formula, HybridProgram, Ident, Imp, Lit, Loop, Neg, Not,
    ODE, Or, Seq, TRUE, Term, Test, Var, conj, conjuncts,
)
from .semantics import (
    Interpretation, StructuralError, UNDEF, Undefined, Valuation,
    eval_formula, eval_term, is_runtime_evaluable,
)
from .transform import (
    SubstitutionError, free_vars, free_vars_and_symbols, index_tags,
    instantiate_indices, ordered_free_vars, substitute, symbols, tag_with_index,
)
from .codegen import Module
from .printer import pretty_print, print_formula, print_program, print_term
from .parser import ParseError, parse_formula, parse_program, parse_term, tokenize
