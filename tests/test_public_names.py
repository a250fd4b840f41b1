"""No dead public names: every public top-level def or class of
src/framecat, and every public method of its classes, is reached from
perfbench/ or from the module-level code of the package (its tables and
its entry point), through the bodies of the definitions reached.  A class
reaches what its fields, decorators and private methods name; a public
method is reached by its name alone, as an attribute of anything.
`__init__`, which only re-exports, and import statements reach nothing.  A
name that only tests reach belongs in tests/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "framecat"

# each allowed name with why it stays in src/ unreached
ALLOWED = {
    "crm.theta_extension": "L^vee on morphisms, which the check of PI -| L^vee as a "
                           "bijection of hom-sets (ROADMAP item 7) will call",
}


def named(node: ast.AST) -> set[str]:
    """The identifiers a piece of code names: its names and attributes, and
    the string constants that are (dotted) identifiers, as the span tables
    of perfbench name the functions they wrap.  Docstrings name nothing."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def is_public(name: str) -> bool:
    return not name.startswith("_")


def definitions(path: Path):
    """(name, what its body names) for each top-level def and class of
    path, and ("Class.method", ...) for each public method of a class,
    whose body is then left out of the class's; and the module-level
    code."""
    out, rest = [], set()
    for node in parse(path).body:
        if isinstance(node, ast.ClassDef):
            methods = [sub for sub in node.body
                       if isinstance(sub, ast.FunctionDef) and is_public(sub.name)]
            body = set()
            for sub in node.body:
                if sub not in methods:
                    body |= named(sub)
            out.append((node.name, body | {n for b in node.bases for n in named(b)}))
            out += [(f"{node.name}.{m.name}", named(m)) for m in methods]
        elif isinstance(node, ast.FunctionDef):
            out.append((node.name, named(node)))
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            rest |= named(node)
    return out, rest


def unreached_public_names() -> list[str]:
    uses, roots = {}, set()  # uses[name]: what the body of definition `name` names
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        defs, rest = definitions(path)
        uses.update(((path.stem, name), body) for name, body in defs)
        roots |= rest
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        roots |= named(parse(path))
    reached, todo = set(), set(roots)
    while todo:
        name = todo.pop()
        for (module, definition), body in uses.items():
            if definition.split(".")[-1] == name and (module, definition) not in reached:
                reached.add((module, definition))
                todo |= body
    return sorted(f"{module}.{definition}" for module, definition in uses
                  if (module, definition) not in reached
                  and is_public(definition.split(".")[-1]))


def test_every_public_name_in_src_is_reached_outside_tests():
    assert unreached_public_names() == sorted(ALLOWED)
