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
