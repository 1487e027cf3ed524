"""Spans around the calls into each layer's public functions.

The tracer wraps module attributes of the ``twomode_dicke`` package from the
benchmark's own files; the program is not changed.  A function is replaced in
every package module that binds it, so ``from .model import f`` call sites are
traced as well as ``model.f`` ones.  Spans (name, parent, start, end, raised)
stay in memory until ``write`` is called at the end of the run.

A span's self time is its duration minus the durations of its direct child
spans, which nest inside it because every traced call runs on one thread.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

#: Layer -> traced public functions.
LAYERS = {
    "cli": ["run_sweep", "evaluate_point", "write_output", "run_oracle_compare"],
    "model": ["classical_ground_state", "fluctuation_matrix", "excitation_gaps",
              "ground_state_energy", "ground_state_cm"],
    "symplectic": ["symplectic_eigenvalues", "williamson", "standard_form"],
    "gaussian_info": ["correlation_report", "renyi2_entropy"],
    "oracle": ["exact_ground_state"],
}
FUNCTIONS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
#: Functions whose ``raised`` count is reported: the layers below cli.  The cli
#: functions turn the errors of those layers into ``error`` or ``diverged`` rows.
RAISING = [name for name in FUNCTIONS if not name.startswith("cli.")]


def _oracle_dimension(oracle_module, args, kwargs) -> int:
    """Hilbert dimension of every solve one exact_ground_state call makes.

    The call solves ``spec`` and, with ``check_convergence`` (the default),
    re-solves at n_max + 2 when that fits the dimension budget.
    """
    spec = kwargs["spec"] if "spec" in kwargs else args[1]
    check = kwargs.get("check_convergence", args[2] if len(args) > 2 else True)
    total = spec.dimension
    if check:
        bigger = oracle_module.TruncationSpec(j=spec.j, n_max=spec.n_max + 2)
        if bigger.dimension <= oracle_module.DIMENSION_BUDGET:
            total += bigger.dimension
    return total


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, parent index or -1, start, end, raised)
        self.stack: list[int] = []
        self.dimension = 0
        self._patched: list = []   # (module, attribute, original)

    def _wrap(self, name, fn, on_call=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end, raised)

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "twomode_dicke" or key.startswith("twomode_dicke.")]
        for name in FUNCTIONS:
            layer, attr = name.split(".")
            home = sys.modules[f"twomode_dicke.{layer}"]
            original = getattr(home, attr)
            on_call = None
            if name == "oracle.exact_ground_state":
                def on_call(args, kwargs, home=home):
                    self.dimension += _oracle_dimension(home, args, kwargs)
            wrapper = self._wrap(name, original, on_call)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def stats(self) -> dict:
        """{name: {"calls", "self_s", "raised"}} over all recorded spans."""
        out = {name: {"calls": 0, "self_s": 0.0, "raised": 0} for name in FUNCTIONS}
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, raised in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, _, start, end, raised), covered in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
            entry["raised"] += raised
        return out

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: [index, parent, name, start_s, end_s, raised]."""
        with gzip.open(path, "wt") as fh:
            for index, (name, parent, start, end, raised) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, name, start, end, raised]) + "\n")
