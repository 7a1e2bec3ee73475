"""No module of the package keeps unbounded state: no module-level name
is bound to a mutable container, every `lru_cache` has an integer
`maxsize`, and `functools.cache` memoises only functions of no
arguments (one value per process).  Read off the source with `ast`."""

import ast
from pathlib import Path

import pytest

import wellround

SOURCES = sorted(Path(wellround.__file__).resolve().parent.glob("*.py"))

CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                   "Counter", "deque", "bytearray"}


def _name(node) -> str:
    """The last name of a Name or an Attribute, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and _name(node.func) in CONTAINER_CALLS


def _module_statements(body):
    """The statements run at import time: the module body, down through
    if/try/with/for blocks but not into functions or classes."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _module_statements(getattr(stmt, field, ()))
        for handler in getattr(stmt, "handlers", ()):
            yield from _module_statements(handler.body)


def _mutable_bindings(tree) -> list[str]:
    found = []
    for stmt in _module_statements(tree.body):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None and _is_container(stmt.value):
                found.append(f"line {stmt.lineno}")
    return found


def _has_arguments(fn) -> bool:
    args = fn.args
    return bool(args.posonlyargs or args.args or args.vararg
                or args.kwonlyargs or args.kwarg)


def _unbounded_caches(tree) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None)
            if not (isinstance(size, ast.Constant)
                    and type(size.value) is int):
                found.append(f"line {node.lineno}: lru_cache without an "
                             "integer maxsize")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if _name(dec) == "lru_cache":
                    found.append(f"line {dec.lineno}: bare lru_cache")
                elif _name(dec) == "cache" and _has_arguments(node):
                    found.append(f"line {dec.lineno}: cache on {node.name}, "
                                 "which takes arguments")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unbounded_module_state(path):
    tree = ast.parse(path.read_text(), str(path))
    assert _mutable_bindings(tree) == []
    assert _unbounded_caches(tree) == []


@pytest.mark.parametrize("source, bad", [
    ("_MEMO = {}", 1),
    ("_MEMO: dict = {}", 1),
    ("SEEN = set()", 1),
    ("ROWS = [x for x in range(3)]", 1),
    ("try:\n    T = dict()\nexcept ImportError:\n    T = []", 2),
    ("SIZES = (1, 2)\nNAME = 'x'", 0),
    ("def f():\n    memo = {}\n    return memo", 0),
])
def test_mutable_bindings_are_found(source, bad):
    assert len(_mutable_bindings(ast.parse(source))) == bad


@pytest.mark.parametrize("source, bad", [
    ("@lru_cache\ndef f(x): pass", 1),
    ("@lru_cache()\ndef f(x): pass", 1),
    ("@lru_cache(maxsize=None)\ndef f(x): pass", 1),
    ("@functools.lru_cache(None)\ndef f(x): pass", 1),
    ("@cache\ndef f(x): pass", 1),
    ("@lru_cache(maxsize=8)\ndef f(x): pass", 0),
    ("@functools.lru_cache(64)\ndef f(x): pass", 0),
    ("@cache\ndef f(): pass", 0),
])
def test_unbounded_caches_are_found(source, bad):
    assert len(_unbounded_caches(ast.parse(source))) == bad
