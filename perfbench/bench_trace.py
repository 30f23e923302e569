"""Span tracing of gkslgraph's layers from outside the package.

:class:`Tracer` wraps every public function of each layer module
(``__all__``, or every name without a leading underscore).  It installs
each wrapper wherever a gkslgraph module holds a reference to the function,
including names another module imported (for example ``kernel.validate``
and ``cli.validate`` besides ``generator.validate``).  The source tree is
not touched; ``uninstall`` puts every original object back, and the tracer
can be installed again.  Each call records a span ``(name, start, end,
parent, spec_id, raised)`` in memory.

:func:`layer_metrics` turns the spans into the per-layer metrics.  A
``*_self_s`` metric is the span time minus the time of the traced calls it
made; every other ``*_s`` metric is the whole span time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: The layers, one module each, in call order.
LAYERS = ("io", "generator", "basis", "digraph", "kernel", "cli")

#: Index helpers called once per matrix entry (O(N^3) times per spec in the
#: pair-block analysis): a span each would cost more than the work it times.
UNTRACED = frozenset({"basis.standard_position", "basis.gellmann_position"})

#: Spans recorded while the caches are filled, before any timed command.
SETUP_SPEC_ID = -1

#: Unit of every per-layer metric; the last two come from run.py.
LAYER_UNITS = {
    "io.load_spec_s": "s",
    "io.input_bytes": "B",
    "io.dump_json_s": "s",
    "io.output_bytes": "B",
    "generator.validate_s": "s",
    "generator.validate_calls": "count",
    "generator.canonicalize_self_s": "s",
    "generator.canonicalize_calls": "count",
    "generator.classify_s": "s",
    "generator.superoperator_s": "s",
    "generator.superoperator_calls": "count",
    "generator.dense_gamma_bytes": "B",
    "basis.basis_change_matrix_s": "s",
    "digraph.induced_digraph_s": "s",
    "digraph.induced_digraph_calls": "count",
    "digraph.scc_decompose_calls": "count",
    "digraph.tscc_stationary_vectors_s": "s",
    "digraph.max_terminal_component": "count",
    "kernel.full_kernel_self_s": "s",
    "kernel.analytic_fraction": "fraction",
    "kernel.brute_force_kernel_s": "s",
    "kernel.brute_force_calls": "count",
    "kernel.verify_invariant_self_s": "s",
    "cli.self_s": "s",
    "setup.warmup_excess_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records a span for every call of a wrapped function while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.spec_id = SETUP_SPEC_ID
        #: (spec_id, N) for every GeneratorSpec constructed.
        self.spec_builds: list[tuple[int, int]] = []
        #: (spec_id, size of the largest terminal component) per stationary-vector call.
        self.terminal_sizes: list[tuple[int, int]] = []
        self._stack: list[int] = []
        #: One wrapper per function, reused each time the tracer is installed.
        self._wrappers: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import gkslgraph

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "gkslgraph"]
        for layer in LAYERS:
            module = sys.modules[f"gkslgraph.{layer}"]
            public = getattr(module, "__all__", None) or [
                a for a in vars(module) if not a.startswith("_")
            ]
            for attr in public:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if (
                    isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != module.__name__
                    or name in UNTRACED
                ):
                    continue
                wrapper = self._wrappers.get(name)
                if wrapper is None:
                    wrapper = self._wrappers[name] = self._wrap(name, fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, key, fn))
                            setattr(holder, key, wrapper)

        spec_cls = gkslgraph.generator.GeneratorSpec
        post_init = spec_cls.__post_init__
        builds = self.spec_builds

        def counted_post_init(spec):
            post_init(spec)
            builds.append((self.spec_id, spec.H.shape[0]))

        self._restore.append((spec_cls, "__post_init__", post_init))
        spec_cls.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = self._observe_terminal if name == "digraph.tscc_stationary_vectors" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.spec_id, raised)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_terminal(self, stationary) -> None:
        largest = max((len(sv.component) for sv in stationary), default=0)
        self.terminal_sizes.append((self.spec_id, largest))

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "spec_builds": self.spec_builds,
            "terminal_sizes": self.terminal_sizes,
        }


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def span_totals(trace: dict) -> tuple[dict, dict, dict]:
    """Per span name, over timed commands: (total time, self time, calls),
    plus set-up time per name under the key ``("setup", name)``."""
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, spec_id, raised in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for idx, (name_id, start, end, parent, spec_id, raised) in enumerate(spans):
        key = names[name_id] if spec_id != SETUP_SPEC_ID else ("setup", names[name_id])
        total[key] += end - start
        self_time[key] += end - start - child_time[idx]
        calls[key] += 1
    return total, self_time, calls


def layer_metrics(trace: dict, commands: int, kernel_requests: int,
                  input_bytes: float, output_bytes: float) -> dict[str, float]:
    """Per-layer metrics, per timed command unless named otherwise.

    ``commands`` is the number of traced timed commands and
    ``kernel_requests`` how many of them were ``kernel`` commands.
    """
    total, self_time, calls = span_totals(trace)
    n = max(commands, 1)
    analytic = sum(
        1
        for name_id, _, _, _, spec_id, raised in trace["spans"]
        if spec_id != SETUP_SPEC_ID
        and trace["names"][name_id] == "kernel.full_kernel"
        and not raised
    )
    gamma_bytes = sum(16 * N**4 for spec_id, N in trace["spec_builds"] if spec_id != SETUP_SPEC_ID)
    terminal = [size for spec_id, size in trace["terminal_sizes"] if spec_id != SETUP_SPEC_ID]
    return {
        "io.load_spec_s": total["io.load_spec"] / n,
        "io.input_bytes": input_bytes,
        "io.dump_json_s": total["io.dump_json"] / n,
        "io.output_bytes": output_bytes,
        "generator.validate_s": total["generator.validate"] / n,
        "generator.validate_calls": calls["generator.validate"] / n,
        "generator.canonicalize_self_s": self_time["generator.canonicalize"] / n,
        "generator.canonicalize_calls": calls["generator.canonicalize"] / n,
        "generator.classify_s": total["generator.classify_pair_block_diagonal"] / n,
        "generator.superoperator_s": total["generator.superoperator"] / n,
        "generator.superoperator_calls": calls["generator.superoperator"] / n,
        "generator.dense_gamma_bytes": gamma_bytes / n,
        # Cache fill happens once per process, before the first command.
        "basis.basis_change_matrix_s": total[("setup", "basis.basis_change_matrix")],
        "digraph.induced_digraph_s": total["digraph.induced_digraph"] / n,
        "digraph.induced_digraph_calls": calls["digraph.induced_digraph"] / n,
        "digraph.scc_decompose_calls": calls["digraph.scc_decompose"] / n,
        "digraph.tscc_stationary_vectors_s": total["digraph.tscc_stationary_vectors"] / n,
        "digraph.max_terminal_component": max(terminal, default=0),
        "kernel.full_kernel_self_s": self_time["kernel.full_kernel"] / n,
        "kernel.analytic_fraction": analytic / kernel_requests if kernel_requests else 0.0,
        "kernel.brute_force_kernel_s": total["kernel.brute_force_kernel"] / n,
        "kernel.brute_force_calls": calls["kernel.brute_force_kernel"] / n,
        "kernel.verify_invariant_self_s": self_time["kernel.verify_invariant"] / n,
        "cli.self_s": self_time["cli.main"] / n,
    }
