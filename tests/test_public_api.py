"""Every exported name resolves: no dangling entries in any ``__all__``,
every function the benchmark's tracer hooks still exists, and the
package exports exactly its documented API."""

import ast
import importlib
import importlib.util
import pkgutil
import re
import tomllib
from pathlib import Path

import pytest

import lifedual

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["lifedual"] + [
    f"lifedual.{info.name}" for info in pkgutil.iter_modules(lifedual.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


# hooks whose functions were gone before this check was added
_ABSENT_HOOKS = {
    "optimizer.numerical_gradient",
    "lower_bound.verify_budget_constraint",
    "lower_bound.kernel_martingale_zscores",
}


def test_benchmark_hooks_resolve():
    # a deleted hook would read as a zero layer metric, not as a failure
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{layer}.{func}"
        for layer, funcs in tracer.HOOKS.items()
        for func in funcs
        if not callable(getattr(importlib.import_module(f"lifedual.{layer}"), func, None))
    ]
    assert [hook for hook in missing if hook not in _ABSENT_HOOKS] == []


def _imported_from_lifedual(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "lifedual" and not node.level
        for alias in node.names
    }


def test_package_exports_the_documented_api():
    # the README's library snippet and the demos are the documented API
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = [re.search(r"```python\n(.*?)```", readme, re.S).group(1)]
    sources += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
    documented = set().union(*map(_imported_from_lifedual, sources))
    expected = documented | {"ValidationError", "NumericalError", "__version__"}
    assert sorted(lifedual.__all__) == sorted(expected)


def test_version_matches_pyproject():
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert lifedual.__version__ == pyproject["project"]["version"]
