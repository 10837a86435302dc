import ast
import subprocess
import sys
from pathlib import Path

import pytest

import orbigw
from orbigw.cyclotomic import Cyclotomic
from orbigw.genus0 import ModelConfig
from orbigw.graphs import StableGraph
from orbigw.qvector import QVector
from orbigw.report import Check
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


def test_import_loads_neither_dataclasses_nor_inspect():
    # the records are plain classes: importing the package runs no generated
    # code, and the CLI's start-up pays for neither module
    src = str(Path(orbigw.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import orbigw, orbigw.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


@pytest.mark.parametrize(
    "make",
    [
        lambda: StableGraph((0, 1), (0, 0, 1), ((0, 1), (1, 1))),
        lambda: ModelConfig(5, 40),
        lambda: Check("unitarity", True, "zero through x^9"),
    ],
)
def test_immutable_records_compare_hash_and_refuse_assignment(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == repr(b) and repr(a).startswith(type(a).__name__ + "(")
    for name in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    assert a == b


def test_records_differ_by_any_field():
    assert StableGraph((0,), (0,), ((0, 0),)) != StableGraph((1,), (0,), ())
    assert ModelConfig(3) != ModelConfig(4) and ModelConfig(3) != ModelConfig(3, 31)
    assert Check("a", True) != Check("a", False) and Check("a", True) != Check("a", True, "x")
    assert ModelConfig(3) != (3, 30) and Check("a", True) != ("a", True, "")


def test_model_config_validates_and_defaults_N():
    assert (ModelConfig(3).N, ModelConfig(7).N, ModelConfig(7, 0).N, ModelConfig(4, 16).N) == (30, 70, 70, 16)
    assert ModelConfig(3) == ModelConfig(3, 30) and ModelConfig(n=4, N=20) == ModelConfig(4, 20)
    for args, err in (
        ((2,), ValueError),
        ((0, 40), ValueError),
        ((4, 15), ValueError),
        ((3, -1), ValueError),
        ((3.0,), TypeError),
        ((True,), TypeError),
        ((3, 30.0), TypeError),
        (("3",), TypeError),
    ):
        with pytest.raises(err):
            ModelConfig(*args)

