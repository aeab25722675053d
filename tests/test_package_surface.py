"""The shipped package has no public name that only tests reach, no
parameter that its function never reads, and no dataclass field that no
package code reads.

The test walks src/vrlink/*.py with ast. A public module-level function or
class counts as read when another module of the package imports it or its
own module loads it by name. A public method or property counts as read when
package code reads an attribute of that name. Annotations are not reads.
Allowed without a reader: the names vrlink/__init__.py exports, cli.main,
and the functions the benchmark's layer trace wraps (perfbench/layers.py,
loaded by path as in test_bench_hooks.py).

A parameter counts as read when the body of its def, nested code included,
loads its name. Allowed unread: the key of a parser in a ``config.KEYS``
row (parser, default, bound), which is called as parser(key, text) whether
it names the key or not.

A dataclass field counts as read when package code reads an attribute of
that name. Allowed unread: the fields in ``UNREAD_FIELDS``, each with its
reason.

An error class of ``vrlink.errors`` counts as used when a ``raise`` in
package code names it; a class that nothing raises is API the model does
not use, even when the package root exports it.
"""

import ast
import importlib
from pathlib import Path

import vrlink
from test_bench_hooks import load_layers
from vrlink import cli

SRC = Path(vrlink.__file__).resolve().parent

# dataclass fields that only tests read, and why each stays
UNREAD_FIELDS = {
    # test_vectorized holds the stacked DL SINR to the scalar oracle, bit for bit
    "linkmetrics.LinkMetrics.sinr_dl",
    # the one cell's chain that a planned `vrlink explain` prints
    "linkmetrics.LinkMetrics.dl_gain",
    # oracles.reconstruct multiplies the factors back through it
    "numerics.SvdResult.singular_values",
}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _annotation_nodes(tree) -> set:
    """ids of every node inside an annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            roots.append(node.returns)
    return {id(n) for root in roots for n in ast.walk(root)}


def _definitions(modules: dict) -> list:
    """(module, qualname, is_member) of every public def and class."""
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _is_public(node.name):
                continue
            out.append((mod, node.name, False))
            if isinstance(node, ast.ClassDef):
                out += [
                    (mod, f"{node.name}.{item.name}", True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and _is_public(item.name)
                ]
    return out


def _reads(modules: dict) -> tuple:
    """(imported (module, name) pairs, names loaded per module, attribute names read)."""
    imported, loaded, attributes = set(), {}, set()
    for mod, tree in modules.items():
        skip = _annotation_nodes(tree)
        loaded[mod] = set()
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded[mod].add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return imported, loaded, attributes


def _allowed() -> set:
    """The definitions allowed without a reader, each as "module.qualname"."""
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    objects = [
        getattr(vrlink, alias.asname or alias.name)
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    objects.append(cli.main)
    for hook in load_layers().HOOKS:
        target = importlib.import_module(hook.module)
        for part in hook.attr.split("."):
            target = getattr(target, part)
        objects.append(getattr(target, "fget", target))
    return {f"{obj.__module__}.{obj.__qualname__}" for obj in objects}


def unread_names() -> list:
    """Public definitions under src/vrlink that no package code reads."""
    modules = _modules()
    imported, loaded, attributes = _reads(modules)
    allowed = _allowed()
    unread = []
    for mod, qualname, is_member in _definitions(modules):
        if f"vrlink.{mod}.{qualname}" in allowed:
            continue
        name = qualname.rsplit(".", 1)[-1]
        read = name in attributes if is_member else (mod, name) in imported or name in loaded[mod]
        if not read:
            unread.append(f"{mod}.{qualname}")
    return unread


def unread_parameters() -> list:
    """Parameters of defs under src/vrlink that their body never loads, as
    "module.function(parameter)"."""
    unread = []
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None]
            loads = {
                n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{mod}.{node.name}({p})" for p in params
                if p not in loads and not (mod == "config" and params == ["key", "text"] and p == "key")
            ]
    return unread


def unread_fields() -> list:
    """Fields of dataclasses under src/vrlink that no package code reads, as
    "module.Class.field"."""
    modules = _modules()
    _, _, attributes = _reads(modules)
    return [
        f"{mod}.{node.name}.{item.target.id}"
        for mod, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and item.target.id not in attributes
    ]


def unraised_errors() -> list:
    """Classes defined in vrlink.errors that no ``raise`` under src/vrlink names."""
    modules = _modules()
    raised = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return [node.name for node in modules["errors"].body if isinstance(node, ast.ClassDef) and node.name not in raised]


def test_every_public_name_has_a_reader_in_the_package():
    assert unread_names() == []


def test_every_parameter_is_read_by_its_function():
    assert unread_parameters() == []


def test_every_dataclass_field_is_read_by_the_package():
    assert sorted(unread_fields()) == sorted(UNREAD_FIELDS)


def test_every_error_class_is_raised_by_the_package():
    assert unraised_errors() == []
