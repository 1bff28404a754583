"""Spans around the calls into each layer, recorded from outside the program.

`Tracer.install()` replaces each traced public function on every module
attribute of the `kyfan_tilt` package that is bound to it (and
`ProblemSpec.validate` on its class) with a wrapper that records a span:
name, layer, start, end, parent span and operation index.  `uninstall()`
puts every original back.  Spans stay in memory until `write()`.

Functions imported inside function bodies (`from .spectral import
svd_ordered` in tilt, `from .subgrad import psi_value` in oracle) are looked
up on their home module at call time, so patching that module reaches them.
"""
from __future__ import annotations

import functools
import json
import sys
import time

from kyfan_tilt import cli, io, oracle, secder, spectral, subgrad, tilt

# (layer, span name, owner, attribute): owner is the home module or class
TRACED = [
    ("cli", "run_analyze", cli, "run_analyze"),
    ("cli", "problem_from_dict", cli, "problem_from_dict"),
    ("io", "canonical_dumps", io, "canonical_dumps"),
    ("spectral", "svd_ordered", spectral, "svd_ordered"),
    ("subgrad", "subdiff_membership", subgrad, "subdiff_membership"),
    ("subgrad", "psi_value", subgrad, "psi_value"),
    ("secder", "d2", secder, "d2_psi_explicit"),
    ("secder", "d2", secder, "d2_psi_general"),
    ("tilt", "validate", tilt.ProblemSpec, "validate"),
    ("tilt", "build_upsilon", tilt, "build_upsilon"),
    ("tilt", "tilt_check", tilt, "tilt_check"),
    ("oracle", "quotient", oracle, "d2_quotient_oracle"),
    ("oracle", "probe", oracle, "tilt_probe"),
    ("oracle", "matrix_prox", oracle, "kyfan_matrix_prox"),
]
LAYERS = ("cli", "io", "spectral", "subgrad", "secder", "tilt", "oracle")
ROOT_LAYER = "bench"


def package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "kyfan_tilt" or name.startswith("kyfan_tilt."))]


def bindings(fn):
    """Every (module, attribute) of the package bound to fn."""
    return [(mod, attr) for mod in package_modules()
            for attr, val in list(vars(mod).items()) if val is fn]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, op]
        self.stack = []
        self.op = -1
        self.counts = {
            "tilt.hull_dim": 0,
            "tilt.kernel_dim": 0,
            "tilt.intersection_dim": 0,
            "tilt.margin_evals": 0,
            "tilt.variants": 0,
        }
        self._saved = []
        self.missing = []
        self.search_hooked = False

    # -- spans --------------------------------------------------------------

    def begin(self, name, layer):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, layer, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    # -- counters read from results -------------------------------------------

    def _on_tilt_check(self, verdict):
        cert = verdict.certificate
        self.counts["tilt.hull_dim"] += int(cert.get("hull_dim", 0))
        self.counts["tilt.kernel_dim"] += int(cert.get("kernel_dim", 0))
        self.counts["tilt.intersection_dim"] += int(cert.get("intersection_dim", 0))
        self.counts["tilt.variants"] += 1 + int(cert.get("rotation_samples", 0))
        if not self.search_hooked:
            search = cert.get("search") or {}
            self.counts["tilt.margin_evals"] += int(search.get("margin_evals") or 0)

    def _on_search(self, out):
        try:
            self.counts["tilt.margin_evals"] += int(out[1]["margin_evals"])
        except (TypeError, KeyError, IndexError):
            pass  # the search reports differently; the count stays short

    # -- patching -------------------------------------------------------------

    def install(self):
        hooks = {"tilt_check": self._on_tilt_check}
        wrapped = {}
        for layer, name, owner, attr in TRACED:
            fn = vars(owner).get(attr)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            wrapped[fn] = self._wrap(fn, name, layer, hooks.get(name))
            if isinstance(owner, type):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped[fn])
        # The witness search is private: its span counts the margin
        # evaluations it reports.  Without it the count comes from
        # Inconclusive certificates.
        search = vars(tilt).get("_search_witness")
        if search is not None:
            wrapped[search] = self._wrap(search, "witness_search", "tilt", self._on_search)
            self.search_hooked = True
        for fn, wrapper in wrapped.items():
            for mod, attr in bindings(fn):
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- summaries ------------------------------------------------------------

    def summary(self):
        """Per-layer self times and per-function inclusive times and calls.

        A span's self time is its duration minus its children's durations.
        Inclusive time counts only the outermost span of each name, so a
        function that re-enters itself is not counted twice."""
        n = len(self.spans)
        child = [0.0] * n
        for name, layer, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = {layer: 0.0 for layer in LAYERS + (ROOT_LAYER,)}
        incl = {}
        calls = {}
        root_s = 0.0
        for i, (name, layer, t0, t1, parent, op) in enumerate(self.spans):
            dur = t1 - t0
            self_s[layer] += dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                root_s += dur
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][4]
            if p < 0:
                incl[name] = incl.get(name, 0.0) + dur
        return {"self_s": self_s, "incl_s": incl, "calls": calls, "root_s": root_s}

    def write(self, path, header):
        keys = ("name", "layer", "start", "end", "parent", "op")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
