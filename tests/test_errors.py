"""`errors.naming` is the one way an error gets its place put in front of its
message: no other code in vidcap catches a VidcapError to raise it again."""

import ast
from pathlib import Path

import pytest

from vidcap import errors
from vidcap.errors import DataError, DimensionError, FormatError, NumericError, naming

SRC = Path(__file__).resolve().parent.parent / "src" / "vidcap"
ERROR_CLASSES = {name for name, obj in vars(errors).items()
                 if isinstance(obj, type) and issubclass(obj, errors.VidcapError)}


def reraising_handlers(source: str) -> list[int]:
    """Lines of the `except` clauses that name a VidcapError class and raise."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and ERROR_CLASSES & {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
        and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt)))


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "errors.py"}),
                         ids=lambda p: p.name)
def test_no_handler_reraises_a_vidcap_error(path):
    assert reraising_handlers(path.read_text(encoding="utf-8")) == []


def test_scan_finds_a_reraising_handler():
    source = ("try:\n    f()\nexcept (DataError, KeyError) as e:\n    raise DataError(e)\n"
              "try:\n    f()\nexcept ValueError:\n    raise DataError('x')\n"
              "try:\n    f()\nexcept NumericError:\n    pass\n"
              "try:\n    f()\nexcept FormatError:\n    if g():\n        raise\n")
    assert reraising_handlers(source) == [3, 15]


def test_naming_keeps_the_type_and_drops_the_cause():
    with pytest.raises(FormatError) as info:
        with naming("f.bin: "):
            raise FormatError("bad magic")
    assert str(info.value) == "f.bin: bad magic" and type(info.value) is FormatError
    assert info.value.__suppress_context__ and info.value.__cause__ is None


def test_naming_raises_as_the_given_type():
    with pytest.raises(FormatError, match="^f.bin: no centroids$"):
        with naming("f.bin: ", DimensionError, FormatError):
            raise DimensionError("no centroids")


def test_naming_passes_other_kinds_and_success_through():
    with pytest.raises(NumericError, match="^nan$"):
        with naming("f.bin: ", (DataError, DimensionError)):
            raise NumericError("nan")
    with pytest.raises(KeyError):
        with naming("f.bin: "):
            raise KeyError("k")
    with naming("f.bin: "):
        value = 1
    assert value == 1
