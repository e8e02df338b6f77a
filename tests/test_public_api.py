"""Every exported name resolves: no dangling entries in any ``__all__``,
and every function the benchmark's tracer hooks still exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import lifedual

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
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
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
