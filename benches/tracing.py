"""Per-layer tracing for the xnadhm benchmark, kept outside the library.

``Tracer.install()`` rebinds each traced public function of the library to a
wrapper that records a span around the call: every module attribute that
holds the original function object is replaced, so names one module imports
from another (``xn``'s ``inverse``, ``quiver``'s ``rank``) are traced too,
and so are the ``Matrix`` constructor and ``@``.  Spans are kept on a stack
in memory; a span's self time is its duration minus the time covered by its
child spans.  ``uninstall()`` puts every original back.

Layers are named after the library modules.  The ``linalg`` kernels are
grouped by backend: complex-backend rank, nullspace and invertibility tests
are the ``svd`` layer, and rank, determinant, nullspace and inverse on the
exact backends (rationals, GF(p)) are the ``exact_elim`` layer.

A few private functions are hooked only to count work inside a layer
(subspaces yielded and subspace pairs tested by the prime-field oracle,
samples run by a campaign).  A hook whose target no longer exists is skipped
and its counts read zero.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

from xnadhm import (campaigns, linalg, monad, pencil, plane, quiver,
                    sampling, xn)

#: the name under which each per-sample span is recorded
SAMPLE = "sample"

BF = "quiver.brute_force_semistable"


#: (owner, attribute, layer on the complex backend, layer on the exact
#: backends); owner is a module or the Matrix class, and a ``None`` layer
#: means the call is not a span of its own
TRACED = (
    (linalg.Matrix, "__init__", "linalg.Matrix", "linalg.Matrix"),
    (linalg.Matrix, "__matmul__", "linalg.matmul", "linalg.matmul"),
    (linalg, "rank", "linalg.svd", "linalg.exact_elim"),
    (linalg, "nullspace", "linalg.svd", "linalg.exact_elim"),
    (linalg, "is_invertible", "linalg.svd", None),
    (linalg, "is_invertible_rel", "linalg.svd", None),
    (linalg, "inverse", "linalg.inverse", "linalg.exact_elim"),
    (linalg, "det", "linalg.det", "linalg.exact_elim"),
    (linalg, "eigenvalues", "linalg.eigenvalues", "linalg.eigenvalues"),
) + tuple((module, attr, layer, layer)
          for module, attrs in (
              (pencil, ("analyze_pencil",)),
              (plane, ("check_T2", "common_eigenvectors")),
              (xn, ("zeta_inverse", "zeta", "check_P1", "check_P3_direct",
                    "check_P3_via_chart", "transition_phi",
                    "transition_omega", "gl2_action_chart")),
              (monad, ("build_jm", "reexpand_chart", "gauge_normalize",
                       "gauge_action")),
              (quiver, ("brute_force_semistable",
                        "check_semistable_spectral")),
              (sampling, ("random_chart_data", "overlap_margin")),
              (campaigns, ("run_campaign",)))
          for attr in attrs
          for layer in [f"{module.__name__.rsplit('.', 1)[1]}.{attr}"])

#: every layer that reports calls, self time and errors
LAYERS = tuple(dict.fromkeys(
    layer for _, _, *layers in TRACED for layer in layers if layer))


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self.sample_s = []
        self._stack = []          # [layer, seconds covered by child spans]
        self._active = Counter()  # layers currently on the stack
        self._suite = None
        self._bf_rep = None
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def _span(self, layer, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [layer, 0.0]
        self._stack.append(frame)
        self._active[layer] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[layer] += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._active[layer] -= 1
            self.calls[layer] += 1
            self.self_s[layer] += dt - frame[1]
            if parent is not None:
                parent[1] += dt
            if layer == SAMPLE:
                self.sample_s.append(dt)

    def sample(self, fn, *args):
        """Run one benchmark sample inside a per-sample span."""
        return self._span(SAMPLE, fn, args, {})

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    # -- counters at layer boundaries -------------------------------------

    def _on_enter(self, layer, args):
        if layer in ("linalg.svd", "linalg.eigenvalues") and self._active[BF]:
            self.counts["quiver.enum_float_calls"] += 1
        elif layer == BF:
            self._bf_rep = args[0]
            self.counts["quiver.slope_calls"] -= 1   # the full-space slope
        elif layer == "campaigns.run_campaign":
            self._suite = args[0]
        elif (self._suite == "cocycle"
              and self._active["campaigns.run_campaign"]):
            if layer == "sampling.random_chart_data":
                c = args[1]
                self.counts["transitions.pairs_enumerated"] += (c + 1) ** 2
            elif (layer == "xn.transition_phi"
                  and self._parent() != "xn.transition_omega"):
                self.counts["transitions.direct_phi_calls"] += 1

    def _wrap(self, fn, layer, exact_layer):
        def traced(*args, **kwargs):
            if exact_layer != layer and args[0].backend.exact:
                layer_ = exact_layer
            else:
                layer_ = layer
            if layer_ is None:
                return fn(*args, **kwargs)
            self._on_enter(layer_, args)
            return self._span(layer_, fn, args, kwargs)
        return traced

    def _hooks(self):
        """(module, attribute, wrapper factory) for the counting hooks."""
        def subspace_bases(fn):
            def counted(*args, **kwargs):
                for S in fn(*args, **kwargs):
                    self.counts["quiver.subspaces"] += 1
                    yield S
            return counted

        def maps_into(fn):
            def counted(A, S0, S1):
                # every tested pair checks the first A arrow first
                if self._bf_rep is not None and A is self._bf_rep.A1:
                    self.counts["quiver.pairs_tested"] += 1
                return fn(A, S0, S1)
            return counted

        def theta_slope(fn):
            def counted(*args, **kwargs):
                if self._active[BF]:
                    self.counts["quiver.slope_calls"] += 1
                return fn(*args, **kwargs)
            return counted

        def run_samples(fn):
            def spanned(one, seeds, jobs):
                return fn(lambda s: self.sample(one, s), seeds, jobs)
            return spanned

        return ((quiver, "subspace_bases", subspace_bases),
                (quiver, "_maps_into", maps_into),
                (quiver, "theta_slope", theta_slope),
                (campaigns, "_run_samples", run_samples))

    # -- install / uninstall -----------------------------------------------

    def _rebind(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = make(original)
        if isinstance(owner, type):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "xnadhm" and not name.startswith("xnadhm."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        for owner, attr, *layers in TRACED:
            self._rebind(owner, attr,
                         lambda fn, layers=layers: self._wrap(fn, *layers))
        for owner, attr, make in self._hooks():
            self._rebind(owner, attr, make)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- report --------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        c = self.counts
        closed = c["quiver.slope_calls"]
        tested = c["quiver.pairs_tested"]
        out["quiver.subspaces.count"] = (c["quiver.subspaces"], "count")
        out["quiver.closed_pair_ratio"] = (
            closed / tested if tested else 0.0, "ratio")
        out["quiver.enum_float_calls"] = (c["quiver.enum_float_calls"],
                                          "count")
        # a chart pair that clears every margin makes three direct
        # transition_phi calls; one skipped by the first margin makes none
        pairs = c["transitions.pairs_enumerated"]
        out["transitions.pairs_tested_ratio"] = (
            c["transitions.direct_phi_calls"] / (3 * pairs) if pairs else 0.0,
            "ratio")
        ms = sorted(1e3 * s for s in self.sample_s)
        if len(ms) >= 2:
            deciles = statistics.quantiles(ms, n=10)
            p50, p90 = statistics.median(ms), deciles[8]
        else:
            p50 = p90 = ms[0] if ms else 0.0
        out["sample_ms_p50"] = (p50, "ms")
        out["sample_ms_p90"] = (p90, "ms")
        out["sample_count"] = (len(ms), "count")
        return out
