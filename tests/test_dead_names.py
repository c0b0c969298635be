"""Every top-level name and every method in ``src/adashield`` has a reader.

An ``ast`` scan lists each module's top-level functions, classes and
constants, and every name the package loads outside import statements,
with an imported name resolved to the module that defines it.  A name that
nothing in the package loads is dead code, unless the allowlist says why it
stays.  The scan also lists the methods and properties of each top-level
class, as ``Class.name``.  The type of an attribute's receiver is not known
statically, so a method counts as read when the package loads any
attribute of its name.  Dunder names are read by Python and its tools, and
are left out.
"""

import ast
from pathlib import Path

import adashield

PACKAGE = Path(adashield.__file__).parent

#: (module, name) -> why the name stays though nothing in the package reads it
ALLOWED = {
    ("adashield.dl.parser", "parse_term"): "the public parser API",
    ("adashield.dl.parser", "parse_formula"): "the public parser API",
    ("adashield.dl.parser", "parse_program"): "the public parser API",
    ("adashield.dl.transform", "instantiate_indices"):
        "the test oracle of index-bound evaluation",
    ("adashield.strategy", "linearize"): "the reference wrapper of _lin",
    ("adashield.strategy", "referenced_indices"):
        "shieldbench's tracer rebinds runtime.referenced_indices",
    ("adashield.actions", "interpreted"):
        "the controller reference that generated controllers are tested against",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _scan():
    """``(defined, aliases, loads, methods, attributes)``: per module its
    top-level names, its imported names as ``alias -> (module, name)`` (name
    None for a module), the names it loads, plain or as ``(alias,
    attribute)``, and its classes' methods as ``(class, method)``; and the
    attribute names the package loads."""
    defined, aliases, loads, methods, attributes = {}, {}, {}, {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        mod = _module_name(path)
        package = mod if path.name == "__init__.py" else mod.rpartition(".")[0]
        tree = ast.parse(path.read_text())
        names = defined[mod] = set()
        methods[mod] = set()
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods[mod].update(
                    (node.name, m.name) for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        alias = aliases[mod] = {}
        loaded = loads[mod] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                base = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                source = f"{base}.{node.module}" if node.module else base
                for a in node.names:
                    alias[a.asname or a.name] = (source, a.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    loaded.add((node.value.id, node.attr))
    return defined, aliases, loads, methods, attributes


def _resolve(defined, aliases, mod: str, name: str):
    """The (module, name) that defines ``name`` as ``mod`` sees it,
    following re-exports; a submodule resolves to ``(module, None)``."""
    while name not in defined.get(mod, ()):
        if f"{mod}.{name}" in defined:
            return f"{mod}.{name}", None
        if name not in aliases.get(mod, {}):
            return None
        mod, name = aliases[mod][name]
    return mod, name


def _dead_names() -> set:
    defined, aliases, loads, methods, attributes = _scan()
    used = set()
    for mod, loaded in loads.items():
        for x in loaded:
            if isinstance(x, str):
                used.add(_resolve(defined, aliases, mod, x))
                continue
            target = _resolve(defined, aliases, mod, x[0])
            if target is not None and target[1] is None:
                used.add(_resolve(defined, aliases, target[0], x[1]))
    dead = {(mod, name) for mod, names in defined.items() for name in names
            if (mod, name) not in used and not name.startswith("__")}
    return dead | {(mod, f"{cls}.{name}") for mod, pairs in methods.items()
                   for cls, name in pairs
                   if name not in attributes and not name.startswith("__")}


def test_every_top_level_name_has_a_reader():
    dead = _dead_names()
    assert sorted(dead - set(ALLOWED)) == [], "delete these, or give them a reader"
    assert sorted(set(ALLOWED) - dead) == [], "these have a reader now: unlist them"
