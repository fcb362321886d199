"""Span tracer for the benchmark's traced run.

Each traced call becomes one span: name, start, end, parent span and the
invocation it belongs to. Spans are kept in memory and written out as
JSON lines when the run ends. The record shape (``name``, ``span``,
``parent``, ``invocation``, ``start``, ``end``, optional ``attrs``) is the
one an in-program tracer would emit, so both can feed the same reader.

Instrumentation happens from outside: ``Tracer.install`` replaces each
traced public function in every paradoxlab module namespace that binds it
(``ctc``, ``szilard`` and ``descriptor`` import ``qmath`` names directly),
and times ``__post_init__`` of the validated value classes instead of
replacing the classes, which ``isinstance`` checks rely on.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

# Traced layers as (module, public name); a class name times its validation.
TRACED = (
    ("qmath", "DensityMatrix"),
    ("qmath", "KrausSet"),
    ("qmath", "embed_operator"),
    ("qmath", "evolve_density"),
    ("qmath", "is_unitary"),
    ("qmath", "apply_kraus"),
    ("qmath", "partial_trace"),
    ("qmath", "vn_entropy_bits"),
    ("qmath", "trace_distance"),
    ("qmath", "load_unitary"),
    ("circuit", "run_density"),
    ("circuit", "validate"),
    ("circuit", "sample"),
    ("circuit", "apply_instruction"),
    ("epr", "sweep"),
    ("epr", "check_distribution"),
    ("epr", "info_flow_report"),
    ("descriptor", "advance"),
    ("descriptor", "locality_audit"),
    ("descriptor", "dependence_probe"),
    ("szilard", "run_single_cycle"),
    ("szilard", "run_cycles"),
    ("ctc", "solve_fixed_point"),
    ("ctc", "run_ctc_circuit"),
    ("cli", "parse"),
    ("cli", "execute"),
)

# Counters beyond calls and self time, with their units.
COUNTERS = (
    ("qmath.partial_trace.useful_frac", "frac"),
    ("ctc.solve_fixed_point.iterations", "count"),
    ("ctc.solve_fixed_point.eigensolve_frac", "frac"),
    ("ctc.solve_fixed_point.no_convergence", "count"),
)

_RUN_DENSITY = "circuit.run_density"
_PARTIAL_TRACE = "qmath.partial_trace"
_SOLVE = "ctc.solve_fixed_point"


class Tracer:
    """Collects spans and per-layer totals for one traced run."""

    def __init__(self, no_convergence: type):
        self._no_convergence_type = no_convergence
        self._clock = time.perf_counter
        self.origin = self._clock()
        # Finished spans: (name, span, parent, invocation, start, end, attrs).
        self._spans: List[tuple] = []
        self._stack: List[list] = []  # open spans: [id, name, start, child time]
        self._next_id = 0
        self._invocation: Optional[int] = None
        self._patches: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self._under_run_density = 0
        self._useful_partial_traces = 0
        self._iterations = 0
        self._eigensolves = 0
        self._no_convergence = 0

    # -- spans -------------------------------------------------------------------

    def _enter(self, name: str) -> None:
        if name == _RUN_DENSITY:
            self._under_run_density += 1
        elif name == _PARTIAL_TRACE and not self._under_run_density:
            self._useful_partial_traces += 1
        self._stack.append([self._next_id, name, self._clock(), 0.0])
        self._next_id += 1

    def _exit(self, attrs: Optional[dict]) -> None:
        end = self._clock()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if name == _RUN_DENSITY:
            self._under_run_density -= 1
        self._spans.append((name, span_id, None if parent is None else parent[0],
                            self._invocation, start, end, attrs))

    def __len__(self) -> int:
        return len(self._spans)

    @contextlib.contextmanager
    def invocation(self, index: int, argv):
        """Root span of one CLI invocation; every traced call nests under it."""
        self._invocation = index
        self._enter("invocation")
        try:
            yield
        finally:
            self._exit({"argv": " ".join(argv)})
            self._invocation = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == _SOLVE and isinstance(exc, self._no_convergence_type):
                    self._no_convergence += 1
                self._exit({"error": type(exc).__name__})
                raise
            attrs = None
            if name == _SOLVE:
                self._iterations += result.iterations
                self._eigensolves += result.method == "eigensolve"
                attrs = {"iterations": result.iterations, "method": result.method}
            self._exit(attrs)
            return result

        return traced

    # -- instrumentation -----------------------------------------------------------

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap every traced layer; ``modules`` maps short names to paradoxlab modules."""
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            original = getattr(modules[module_name], attr)
            if isinstance(original, type):
                post_init = original.__post_init__
                self._patches.append((original, "__post_init__", post_init))
                original.__post_init__ = self._wrap(name, post_init)
                continue
            traced = self._wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------------

    def metrics(self) -> Dict[str, tuple]:
        """Per-layer metrics as name -> (value, unit)."""
        out = {}
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        traces = self.calls[_PARTIAL_TRACE]
        solves = self.calls[_SOLVE]
        values = {
            "qmath.partial_trace.useful_frac": self._useful_partial_traces / traces if traces else 0.0,
            "ctc.solve_fixed_point.iterations": self._iterations,
            "ctc.solve_fixed_point.eigensolve_frac": self._eigensolves / solves if solves else 0.0,
            "ctc.solve_fixed_point.no_convergence": self._no_convergence,
        }
        for name, unit in COUNTERS:
            out[name] = (values[name], unit)
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip), times relative to the tracer's start."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, span_id, parent, invocation, start, end, attrs in self._spans:
                record = {"name": name, "span": span_id, "parent": parent,
                          "invocation": invocation, "start": start - self.origin,
                          "end": end - self.origin}
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record) + "\n")
