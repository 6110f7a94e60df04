"""Spans and counters recorded from outside suptail, by wrapping its public functions.

``Tracer.install`` replaces each traced function in every suptail module
namespace that binds it (``from .x import f`` makes a second binding), so
calls between modules are seen as well as calls from the CLI.  ``uninstall``
puts the originals back.  Spans are kept in memory: (name, start, end, parent
index, request id).  Hot functions get a counter only, so that the tracing
overhead stays small next to the work it measures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute, span name or None for count-only, counter name or None)
_FUNCTIONS = [
    ("cli", "load_config", "cli.io", None),
    ("cli", "write_json", "cli.io", None),
    ("cli", "write_csv", "cli.io", None),
    ("sim", "sample_fields", "sim.sample", None),
    ("sim", "covariance_matrix", "sim.covariance", None),
    ("sim", "v_covariance", "sim.kernel", "sim.kernel_evals"),
    ("sim", "factor_covariance", "sim.factor", None),
    ("sim", "empirical_sup_tail", "sim.tail", None),
    ("supbound", "optimize_theta", "supbound.optimize", "supbound.optimize_calls"),
    ("supbound", "u_threshold", None, "supbound.threshold_evals"),
    ("entropy", "entropy_integral_closed", None, "supbound.entropy_evals"),
    ("entropy", "c1_constant", None, "entropy.c1_evals"),
    ("growth", "series_c_sum", "growth.series", None),
    ("growth", "series_s_sum", "growth.series", None),
    ("growth", "optimize_theta_growth", "growth.optimize", None),
    ("growth", "theta_sup", None, "growth.theta_sup_calls"),
    ("heat", "she_growth_envelope", "heat.envelope", None),
    ("metric", "covering_oracle", "metric.covering_oracle", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.factor_dim = 0
        self.request_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.request_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        name, start, _, parent, rid = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, rid)
        self._stack.pop()

    def _wrap(self, fn, span: str | None, counter: str | None):
        counts = self.counts
        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            idx = self.open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return spanned

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapped) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "suptail" and not name.startswith("suptail."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        import suptail.cli  # noqa: F401  (loads every module that is traced)

        for mod_name, attr, span, counter in _FUNCTIONS:
            original = getattr(sys.modules[f"suptail.{mod_name}"], attr)
            self._replace(original, self._wrap(original, span, counter))

        sim = sys.modules["suptail.sim"]
        sample = sim.sample_fields  # already wrapped as a span

        def sample_counted(model, n, *args, **kwargs):
            self.counts["sim.normals"] += n * len(model.grid)
            return sample(model, n, *args, **kwargs)

        self._replace(sample, functools.wraps(sample)(sample_counted))

        factor = sim.factor_covariance

        def factor_sized(cov, *args, **kwargs):
            self.factor_dim = max(self.factor_dim, cov.shape[0])
            return factor(cov, *args, **kwargs)

        self._replace(factor, functools.wraps(factor)(factor_sized))

        heat = sys.modules["suptail.heat"]
        post_init = heat.SheModel.__post_init__
        self._undo.append((heat.SheModel, "__post_init__", post_init))
        heat.SheModel.__post_init__ = self._wrap(post_init, "heat.model_init", None)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # -- summaries ---------------------------------------------------------

    def totals(self, scale: list[float]) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: (sum of durations, sum of self times) in seconds,
        each span multiplied by ``scale[request id]``.

        Self time is a span's duration minus that of its direct children;
        children never overlap because every call is on one thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        self_time: Counter = Counter()
        for idx, (name, start, end, _, rid) in enumerate(self.spans):
            total[name] += (end - start) * scale[rid]
            self_time[name] += (end - start - child[idx]) * scale[rid]
        return dict(total), dict(self_time)
