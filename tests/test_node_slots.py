"""Expression nodes are never changed after construction.

Nodes assign their slots directly in their constructors (no ``__setattr__``
guard), so immutability is kept by this AST scan instead: no module under
``src/sdesym`` other than ``expr/nodes.py`` may assign to, or delete, an
attribute named like a node slot, whether by ``x.slot = ...``,
``setattr(x, "slot", ...)`` or ``object.__setattr__(x, "slot", ...)``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sdesym"
NODES = PACKAGE / "expr" / "nodes.py"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != NODES)
SLOTS = frozenset(
    ("value", "var", "name", "fn", "arg", "base", "exponent", "factors", "terms", "integrand",
     "_hash", "_key")
)


def _targets(node):
    if isinstance(node, (ast.Assign, ast.Delete)):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _flatten(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flatten(elt)
    elif isinstance(target, ast.Starred):
        yield from _flatten(target.value)
    else:
        yield target


def _setattr_name(call):
    """The attribute a setattr-like call names as a literal, else None."""
    fn = call.func
    if isinstance(fn, ast.Name) and fn.id in ("setattr", "delattr"):
        index = 1
    elif isinstance(fn, ast.Attribute) and fn.attr in ("__setattr__", "__delattr__"):
        # object.__setattr__(x, "slot", v) or x.__setattr__("slot", v)
        index = 1 if isinstance(fn.value, ast.Name) and fn.value.id == "object" else 0
    else:
        return None
    if len(call.args) > index:
        arg = call.args[index]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def slot_writes(source: str) -> list:
    out = []
    for node in ast.walk(ast.parse(source)):
        for target in _targets(node):
            for leaf in _flatten(target):
                if isinstance(leaf, ast.Attribute) and leaf.attr in SLOTS:
                    out.append((leaf.lineno, leaf.attr))
        if isinstance(node, ast.Call):
            name = _setattr_name(node)
            if name in SLOTS:
                out.append((node.lineno, name))
    return sorted(out)


def test_the_scan_finds_slot_writes():
    source = (
        "e.value = 1\n"
        "a, (b.terms, c) = x\n"
        "e._key += 1\n"
        "setattr(e, 'fn', 'exp')\n"
        "object.__setattr__(e, '_hash', 0)\n"
        "del e.arg\n"
        "self.h = 1\n"
        "object.__setattr__(self, 'phi', p)\n"
        "y = e.value\n"
    )
    assert slot_writes(source) == [
        (1, "value"),
        (2, "terms"),
        (3, "_key"),
        (4, "fn"),
        (5, "_hash"),
        (6, "arg"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_writes_no_node_slot(path):
    assert slot_writes(path.read_text()) == []
