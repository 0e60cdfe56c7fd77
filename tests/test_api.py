"""The public Python API: every exported name resolves, the names that
version 0.2.0 removed are gone from their old modules, and the README's
library example runs as written."""

import contextlib
import importlib
import importlib.util
import io
import pathlib
import re

import pytest

import ffhyper

ROOT = pathlib.Path(__file__).resolve().parent.parent

REMOVED = {
    "ffhyper": ["all_chars", "delta_char", "delta_elem", "cyclotomic_poly", "embed",
                "from_int", "zeta_pow", "OrderMismatch", "ZeroLog"],
    "ffhyper.cyclo": ["add", "neg", "mul", "embed", "zero", "one", "zeta_pow", "from_int",
                      "_check_orders", "cyclotomic_poly"],
    "ffhyper.cyclo.CycInt": ["__add__", "__sub__", "__mul__", "__neg__", "is_zero"],
    "ffhyper.hyperff.Char": ["__call__", "__mul__", "__invert__", "is_trivial"],
    "ffhyper.ff_core.FieldTable": ["dlog"],
    "ffhyper.errors": ["OrderMismatch", "ZeroLog"],
}


def _resolve(path: str):
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), attr)


def test_every_exported_name_resolves():
    assert len(set(ffhyper.__all__)) == len(ffhyper.__all__)
    for name in ffhyper.__all__:
        assert hasattr(ffhyper, name), name
    namespace = {}
    exec("from ffhyper import *", namespace)
    assert set(ffhyper.__all__) <= set(namespace)
    assert ffhyper.Char is ffhyper.hyperff.Char


def _defines(obj, name: str) -> bool:
    """Whether a module has `name`, or a class defines it (object's own
    methods, such as the __call__ of every class, do not count)."""
    if isinstance(obj, type):
        return any(name in vars(k) for k in obj.__mro__ if k is not object)
    return hasattr(obj, name)


@pytest.mark.parametrize("owner", sorted(REMOVED))
def test_removed_names_are_gone(owner):
    obj = _resolve(owner)
    assert [name for name in REMOVED[owner] if _defines(obj, name)] == []
    assert not set(REMOVED[owner]) & set(getattr(obj, "__all__", ()))


def test_the_charset_module_is_gone():
    assert importlib.util.find_spec("ffhyper.charset") is None


def test_the_version_is_the_project_version():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "(.*)"$', text, re.M).group(1) == ffhyper.__version__
    assert ffhyper.__version__ == "0.2.0"


def _library_example() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_readme_library_example_runs_as_written():
    code = _library_example()
    # the value printed is the one its comment quotes first
    (line,) = [ln for ln in code.splitlines() if ln.startswith("print(")]
    want = re.search(r'#\s*"([^"]*)"', line).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == want + "\n"
