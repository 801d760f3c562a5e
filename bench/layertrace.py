"""Outside-in tracing of the equilag layers.

The tracer wraps every public function of each package module from outside
and rebinds the wrapper in every ``equilag`` namespace that holds the
function, so that names imported with ``from .metric import metric_at`` are
traced as well as attribute calls.  Each wrapped call is a span (name,
start, end, parent); a span's self time is its duration minus the time its
child spans cover.  Calls made once per integrand evaluation (``jacobi``,
``metric_at`` and the integrands handed to the quadrature rule) are only
counted and timed, not stored as spans, to keep the dump small; their time
still leaves their parents' self time.

Besides the public functions, ``iwasawa._beta_segment`` is traced: it is
the one routine that integrates the beta integrals, whether for
``beta_integrals`` or for the cached full-period data of ``monodromy_data``.
The quadrature layer is instrumented a little further: integrand
evaluations per ``adaptive_simpson`` call, the evaluations spent in calls
that raised ``QuadratureError`` (wasted), and ``relaxed_simpson`` calls that
returned after such a failure (fallbacks).
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from functools import wraps

LAYERS = ("elliptic", "linalg3", "potential", "metric", "quadrature", "immersion",
          "iwasawa", "periodicity", "verification", "cli")
SUITES = ("elliptic", "potential", "metric", "iwasawa", "frame", "lift", "identities",
          "periodicity")
# once-per-evaluation calls: aggregated, not stored as spans
HOT = frozenset({"elliptic.jacobi", "metric.metric_at"})
# private functions traced as well: the beta-integral routine that both
# beta_integrals and the cached full-period data of monodromy_data call
PRIVATE = {"iwasawa": ("_beta_segment",)}
# the lru caches each layer's hit ratio is read from
CACHES = {
    "elliptic.agm_cache": ("elliptic", ("_agm_scheme",)),
    "immersion.cache": ("immersion", ("_g_segment", "_g_full_period")),
    "iwasawa.cache": ("iwasawa", ("_beta_full_period",)),
}


def package_modules() -> dict:
    return {name: importlib.import_module(f"equilag.{name}") for name in LAYERS}


def package_caches() -> list:
    """Every functools.lru_cache wrapper held by a package module."""
    found = []
    for mod in package_modules().values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and obj not in found:
                found.append(obj)
    return found


class CacheStats:
    """Hits and misses of the layer caches, summed over cache_clear resets."""

    def __init__(self):
        self.hits = defaultdict(int)
        self.misses = defaultdict(int)

    def collect(self) -> None:
        """Add the counts since the last reset; call before clearing the caches."""
        mods = package_modules()
        for metric, (layer, names) in CACHES.items():
            for name in names:
                info = getattr(mods[layer], name).cache_info()
                self.hits[metric] += info.hits
                self.misses[metric] += info.misses

    def ratios(self) -> dict:
        out = {}
        for metric in CACHES:
            total = self.hits[metric] + self.misses[metric]
            out[f"{metric}.hit_ratio"] = self.hits[metric] / total if total else 0.0
        return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []          # (id, parent id, op, name, start, end)
        self.op = -1                          # index of the operation in its round
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.quad = {"evals": 0, "wasted_evals": 0, "fallbacks": 0}
        self._stack: list[list] = []          # [span id, child time]
        self._next_id = 0
        self._originals: list[tuple] = []     # (module, attribute, original)

    # -- spans --------------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0, 0]       # id, child time, failed quadratures
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list, t0: float, store: bool) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        if store:
            self.spans.append((frame[0], parent[0] if parent else -1, self.op, name, t0, t1))

    def _wrap(self, name: str, fn):
        store = name not in HOT
        tracer = self

        if name == "quadrature.adaptive_simpson":
            return self._wrap_quadrature(name, fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, frame, t0, store)
            if name == "quadrature.relaxed_simpson" and frame[2]:
                tracer.quad["fallbacks"] += 1
            return result

        return traced

    def _wrap_quadrature(self, name: str, fn):
        from equilag.quadrature import QuadratureError

        tracer = self

        @wraps(fn)
        def traced(f, *args, **kwargs):
            layer = getattr(f, "__module__", "") or ""
            integrand = layer.rpartition(".")[2] + ".integrand"
            count = [0]

            def counted(t):
                count[0] += 1
                t0 = time.perf_counter()
                frame = tracer._enter()
                try:
                    return f(t)
                finally:
                    tracer._leave(integrand, frame, t0, False)

            t0 = time.perf_counter()
            frame = tracer._enter()
            try:
                return fn(counted, *args, **kwargs)
            except QuadratureError:
                tracer.quad["wasted_evals"] += count[0]
                if len(tracer._stack) > 1:
                    tracer._stack[-2][2] += 1  # tell an enclosing relaxed_simpson
                raise
            finally:
                tracer.quad["evals"] += count[0]
                tracer._leave(name, frame, t0, True)

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer, in every equilag namespace."""
        import equilag

        mods = package_modules()
        namespaces = [equilag, *mods.values()]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._originals.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._originals):
            setattr(ns, key, fn)
        self._originals.clear()

    # -- metrics --------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}; caches and cli bytes are added by the caller."""
        c, s, q = self.calls, self.self_s, self.quad
        m = {
            "quadrature.calls": (c["quadrature.adaptive_simpson"], "count"),
            "quadrature.evals": (q["evals"], "count"),
            "quadrature.wasted_evals": (q["wasted_evals"], "count"),
            "quadrature.fallbacks": (q["fallbacks"], "count"),
            "quadrature.useful_ratio": (
                (q["evals"] - q["wasted_evals"]) / q["evals"] if q["evals"] else 1.0, "ratio"),
            "elliptic.jacobi.calls": (c["elliptic.jacobi"], "count"),
            "elliptic.jacobi.self_s": (s["elliptic.jacobi"], "s"),
            "metric.metric_at.calls": (c["metric.metric_at"], "count"),
            "metric.metric_at.self_s": (s["metric.metric_at"], "s"),
            # the command's time minus its library spans
            "cli.main.self_s": (self.layer_self_s("cli"), "s"),
            "periodicity.rational_approx.calls": (c["periodicity.rational_approx"], "count"),
            # every pair of beta integrals, by beta_integrals or for monodromy_data
            "iwasawa.beta_integrals.calls": (c["iwasawa._beta_segment"], "count"),
            "iwasawa.beta_integrals.self_s": (
                s["iwasawa.beta_integrals"] + s["iwasawa._beta_segment"], "s"),
        }
        for fn in ("immersion.lift_at", "immersion.phase_integrals",
                   "iwasawa.extended_frame", "potential.eigensystem"):
            m[f"{fn}.calls"] = (c[fn], "count")
            m[f"{fn}.self_s"] = (s[fn], "s")
        for fn in ("immersion.sample_grid", "iwasawa.monodromy_data", "periodicity.classify_torus",
                   "iwasawa.q_factor", "immersion.verify_geometry", "potential.derive_constants"):
            m[f"{fn}.self_s"] = (s[fn], "s")
        # the integrands each layer hands to the quadrature rule
        for layer in ("immersion", "iwasawa", "verification"):
            m[f"{layer}.integrand.self_s"] = (s[f"{layer}.integrand"], "s")
        for suite in SUITES:
            m[f"verification.suite_{suite}.self_s"] = (s[f"verification.suite_{suite}"], "s")
        for layer in LAYERS:
            if layer != "cli":  # reported as cli.main.self_s
                m[f"{layer}.self_s"] = (self.layer_self_s(layer), "s")
        return m
