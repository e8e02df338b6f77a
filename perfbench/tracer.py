"""Run one ``lifedual`` CLI invocation with spans around each layer's functions.

Usage, from the repository root (``perfbench/run.py`` does this)::

    PYTHONPATH=src python3 perfbench/tracer.py PREFIX LAUNCH_NS INVOCATION_ID -- ARGS...

``ARGS`` are the ``lifedual`` command-line arguments.  ``LAUNCH_NS`` is
the ``time.monotonic_ns()`` reading the parent took just before
starting this process, so interpreter start-up gets a span too.

The program source is not edited.  After ``lifedual.cli`` is imported,
every module attribute bound to a hooked function is replaced by a
wrapper that records a span and calls the original; aliases count, so
``lifedual.cli.simulate_candidate_value`` and
``lifedual.optimizer.origin_upper_bound`` are wrapped along with the
defining modules' names.  A hook whose function no longer exists is
listed as absent instead of failing the run.

Spans stay in memory and are written when the invocation ends:
``PREFIX.json`` holds the invocation id, the span names, the counters
and the absent hooks; ``PREFIX.bin`` holds four int64 arrays of equal
length -- name index, parent index (-1 for the invocation root), start
and end in ``time.monotonic_ns()`` units.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from array import array

# layer (module under lifedual) -> public functions wrapped with a span
HOOKS = {
    "config": ("parse_kv_file", "build_run_config"),
    "market": ("preset_scenario", "validate"),
    "closed_form": ("compute_g", "origin_upper_bound"),
    "drift_policy": ("init_params", "make_policy", "evaluate"),
    "optimizer": ("minimize_upper_bound", "numerical_gradient"),
    "lower_bound": (
        "sobol_normals",
        "simulate_candidate_value",
        "verify_budget_constraint",
        "kernel_martingale_zscores",
    ),
    "report": ("build_report", "emit_csv"),
}

# path drivers whose SimulationConfig argument (4th) gives paths x steps
_PATH_DRIVERS = (
    "simulate_candidate_value",
    "verify_budget_constraint",
    "kernel_martingale_zscores",
)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span store plus the counters taken at hooked boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters = {
            "objective_evals": 0,
            "repeat_evals": 0,
            "starts": 0,
            "path_steps": 0,
            "normals_bytes": 0,
        }
        self.absent: list[str] = []
        self._seen_params: set = set()
        self._repeat_ok = True

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished span under the current parent."""
        self.name_idx.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(start_ns)
        self.end.append(end_ns)

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_idx.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.monotonic_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.monotonic_ns()
        self._stack.pop()

    def wrap(self, fn, span_name: str, before=None, after=None):
        # open/close inlined: the objective runs ~10^5 times per invocation
        name_id = self._name_id(span_name)
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end
        stack = self._stack
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(start)
            name_idx.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- counters -----------------------------------------------------

    def _on_start(self, args, kwargs) -> None:
        self.counters["starts"] += 1
        self._seen_params = set()

    def _on_objective(self, args, kwargs) -> None:
        self.counters["objective_evals"] += 1
        if not self._repeat_ok:
            return
        policy = args[2] if len(args) > 2 else kwargs.get("policy")
        key = getattr(policy, "params", None)
        try:
            if key in self._seen_params:
                self.counters["repeat_evals"] += 1
            else:
                self._seen_params.add(key)
        except TypeError:  # parameters not hashable: cannot tell repeats
            self._repeat_ok = False
            self.absent.append("optimizer.repeat_eval_frac")

    def _on_path_driver(self, args, kwargs) -> None:
        config = args[3] if len(args) > 3 else kwargs.get("config")
        steps = getattr(config, "n_paths", 0) * getattr(config, "n_steps", 0)
        self.counters["path_steps"] += steps
        self.counters.setdefault("rss_before_paths_kb", _peak_rss_kb())

    def _after_path_driver(self, result) -> None:
        self.counters["rss_after_paths_kb"] = _peak_rss_kb()

    def _after_normals(self, result) -> None:
        self.counters["normals_bytes"] += getattr(result, "nbytes", 0)

    def _probes(self, func: str):
        if func == "init_params":
            return self._on_start, None
        if func == "origin_upper_bound":
            return self._on_objective, None
        if func in _PATH_DRIVERS:
            return self._on_path_driver, self._after_path_driver
        if func == "sobol_normals":
            return None, self._after_normals
        return None, None

    # -- installation and output ---------------------------------------

    def install(self) -> None:
        """Wrap every binding of each hooked function in the lifedual modules."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "lifedual" or name.startswith("lifedual."))
        }
        for layer, funcs in HOOKS.items():
            home = modules.get(f"lifedual.{layer}")
            for func in funcs:
                original = getattr(home, func, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{func}")
                    continue
                before, after = self._probes(func)
                wrapper = self.wrap(original, f"{layer}.{func}", before, after)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def write(self, prefix: str, invocation_id: str) -> None:
        meta = {
            "invocation": invocation_id,
            "names": self.names,
            "n_spans": len(self.start),
            "counters": self.counters,
            "absent": self.absent,
        }
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.name_idx, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    prefix, launch_ns, invocation_id = argv[0], int(argv[1]), argv[2]
    tracer = Tracer()
    tracer.record("setup.interpreter", launch_ns, time.monotonic_ns())
    idx = tracer.open("setup.import")
    import lifedual.cli

    tracer.close(idx)
    idx = tracer.open("trace.install")
    tracer.install()
    tracer.close(idx)
    idx = tracer.open("cli.main")
    try:
        return lifedual.cli.main(argv[4:])
    finally:
        tracer.close(idx)
        tracer.write(prefix, invocation_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
