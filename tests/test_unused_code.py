"""Every top-level name in the package is used or exported.

A top-level `def`, `class` or assignment must be referenced (as a name,
an attribute or an import) somewhere in the package outside its own
definition. For a public name, an export from `ccskit/__init__.py` (an
import there) is such a reference; a private one (a leading underscore)
must be used by other code of its module.

Every name a module imports is read somewhere in that module, except
the imports of `ccskit/__init__.py` (they are the package's exports) and
`from __future__` imports.

Every parameter a function or lambda declares is read in its body,
except those of dunder methods, `self`, `cls` and names starting with
`_`.

Only `simulator.py`, the one compiler, turns text into code: no other
module reads `eval`, `exec`, `compile_source` or `_compile`. There,
every call of `compile_source` or `compile_tuple` runs inside its one
guard, `_guarded`, which holds the one `except` clause naming
SyntaxError.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ccskit"


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced_names(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_names(src: Path = SRC) -> list[str]:
    """`module.name` for each top-level name nothing else uses."""
    statements = [
        (path.stem, stmt)
        for path in sorted(src.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    refs = [_referenced_names(stmt) for _, stmt in statements]
    unused = []
    for i, (module, stmt) in enumerate(statements):
        for name in _defined_names(stmt):
            if not any(name in r for j, r in enumerate(refs) if j != i):
                unused.append(f"{module}.{name}")
    return unused


def unused_imports(src: Path = SRC) -> list[str]:
    """`module.name` for each imported name its module never reads."""
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        unused += [f"{path.stem}.{name}" for name in imported if name not in read]
    return unused


def unread_parameters(src: Path = SRC) -> list[str]:
    """`module.function.parameter` for each parameter its function or
    lambda never reads, skipping dunder methods, `self`, `cls` and
    `_`-prefixed names."""
    unread = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", "<lambda>")
            if name[:2] == name[-2:] == "__":
                continue
            a = fn.args
            declared = (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {
                node.id
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [
                f"{path.stem}.{name}.{p.arg}"
                for p in declared
                if p is not None
                and p.arg not in read
                and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")
            ]
    return unread


COMPILERS = frozenset({"eval", "exec", "compile_source", "_compile"})


def compiler_uses(src: Path = SRC) -> list[str]:
    """`module.name` for each of COMPILERS a module other than
    `simulator.py` reads, calls or imports."""
    uses = []
    for path in sorted(src.glob("*.py")):
        if path.name != "simulator.py":
            names = _referenced_names(ast.parse(path.read_text()))
            uses += [f"{path.stem}.{name}" for name in sorted(names & COMPILERS)]
    return uses


def _is_private(qualified: str) -> bool:
    return qualified.partition(".")[2].startswith("_")


def test_every_public_name_is_used_or_exported():
    assert [n for n in unused_names() if not _is_private(n)] == []


def test_every_private_name_is_used():
    assert [n for n in unused_names() if _is_private(n)] == []


def test_every_import_is_read():
    assert unused_imports() == []


def test_the_check_sees_a_name_nothing_uses(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "from math import pi, tau\n"
        "LIMIT = 3\n"
        "_SCALE = 2\n"
        "def used():\n    return _helper() * LIMIT * pi\n"
        "def _helper():\n    return _SCALE\n"
        "def lonely():\n    return lonely()\n"
        "def _private():\n    return _private()\n"
    )
    assert unused_names(tmp_path) == ["a.lonely", "a._private"]
    assert unused_imports(tmp_path) == ["a.tau"]


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_the_check_sees_a_parameter_nothing_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(used, unused, _private, *rest, keep=False, **extra):\n"
        "    return used, rest\n"
        "def outer(n):\n    def inner(m):\n        return n\n    return inner\n"
        "g = lambda s, t: s\n"
        "class C:\n"
        "    def __init__(self, x):\n        pass\n"
        "    def method(self, y):\n        return self\n"
        "    @classmethod\n    def make(cls, z):\n        return z\n"
    )
    assert sorted(unread_parameters(tmp_path)) == [
        "a.<lambda>.t", "a.f.extra", "a.f.keep", "a.f.unused", "a.inner.m", "a.method.y",
    ]


def test_only_the_simulator_compiles_code():
    assert compiler_uses() == []


def test_the_check_sees_code_compiled_outside_the_simulator(tmp_path):
    (tmp_path / "simulator.py").write_text("def _compile(src):\n    return eval(src)\n")
    (tmp_path / "a.py").write_text(
        "from .simulator import _compile\n"
        "def f(src):\n    return _compile(src)\n"
        "def g(src):\n    return exec(src)\n"
    )
    (tmp_path / "b.py").write_text(
        "import re\nfrom . import simulator\nPATTERN = re.compile('x')\n"
        "def h(src):\n    return simulator.compile_source('s', src)\n"
    )
    assert compiler_uses(tmp_path) == ["a._compile", "a.exec", "b.compile_source"]


GUARD = "_guarded"
GUARDED = frozenset({"compile_source", "compile_tuple"})


def _called(node: ast.AST) -> str | None:
    """The name a call of a bare name calls, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def unguarded_compiles(path: Path = SRC / "simulator.py") -> list[str]:
    """`name:line` for each call of GUARDED in `path` that is not within
    the arguments of a call of GUARD, leaving out the definitions of
    GUARDED themselves."""
    tree = ast.parse(path.read_text())
    covered = [
        arg
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in GUARDED
        for arg in node.body
    ]
    covered += [
        arg
        for call in ast.walk(tree)
        if _called(call) == GUARD
        for arg in (*call.args, *call.keywords)
    ]
    inside = {id(node) for arg in covered for node in ast.walk(arg)}
    return [
        f"{_called(node)}:{node.lineno}"
        for node in ast.walk(tree)
        if _called(node) in GUARDED and id(node) not in inside
    ]


def syntax_error_handlers(path: Path = SRC / "simulator.py") -> list[int]:
    """The line of each `except` clause in `path` that names SyntaxError."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and any(isinstance(n, ast.Name) and n.id == "SyntaxError" for n in ast.walk(node.type))
    )


def test_every_compile_runs_inside_the_one_guard():
    assert unguarded_compiles() == []
    assert len(syntax_error_handlers()) == 1


def test_the_check_sees_a_compile_outside_the_guard(tmp_path):
    path = tmp_path / "simulator.py"
    path.write_text(
        "def compile_tuple(params, items):\n    return compile_source(params, items)\n"
        "def f(src):\n    return _guarded(src, lambda: compile_source('s', src))\n"
        "def g(src):\n    try:\n        return compile_tuple('s', [src])\n"
        "    except (SyntaxError, ValueError):\n        raise\n"
        "def _guarded(node, make):\n    try:\n        return make()\n"
        "    except SyntaxError:\n        raise\n"
    )
    assert unguarded_compiles(path) == ["compile_tuple:7"]
    assert syntax_error_handlers(path) == [8, 13]
