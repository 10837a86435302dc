import ast
from pathlib import Path

import orbigw
from orbigw.cyclotomic import Cyclotomic
from orbigw.qvector import QVector
from orbigw.ring import RingElement
from orbigw.series import Series

SOURCES = sorted(Path(orbigw.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements; every invariant in the package
    # must raise explicitly so that it still runs there
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_linear_operations_live_in_qvector_only():
    # one normal form and one copy of the linear operations: the exact types inherit them
    shared = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__pow__", "__bool__", "is_zero")
    for cls in (Series, RingElement, Cyclotomic):
        assert issubclass(cls, QVector)
        assert not [name for name in shared if name in vars(cls)], cls


def test_every_parameter_is_read():
    # a parameter its function never reads is an option no caller can use;
    # ``context`` of ``_new`` is the override contract that ``Series._new`` reads
    allowed = {("qvector.py", "_new", "context"), ("cyclotomic.py", "_new", "context")}
    unread = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [
                f"{path.name}:{node.lineno} {node.name}({p})"
                for p in params
                if p != "self" and p not in read and (path.name, node.name, p) not in allowed
            ]
    assert not unread, unread


def test_zero_checks_go_through_report_zero():
    # "this residual has no known nonzero coefficient" is decided in Report.zero
    # alone; hae.py's prefactor-collapse check belongs to the verdict, not to a battery
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name not in ("report.py", "hae.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "zero_order"
    ]
    assert not found, found
