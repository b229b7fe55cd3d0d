"""Span recorder that times potkit's layers from outside the library.

``Tracer.install`` replaces each traced function in every potkit module
namespace that bound it (and ``scipy.sparse.linalg.spsolve``) with a wrapper
that records a span: name, parent span, start and end.  Spans stay in
memory; ``uninstall`` puts every original back.  ``layer_metrics`` turns the
spans and the counts taken from return values into per-layer numbers.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# (layer, module, attribute): functions bound by name in potkit modules
FUNCTIONS = (
    ("penergy.minimize_p_energy", "potkit.penergy", "minimize_p_energy"),
    ("penergy.newton_polish", "potkit.penergy", "newton_polish"),
    ("plaplace.solve_p_dirichlet", "potkit.plaplace", "solve_p_dirichlet"),
    ("plaplace.envelope_check", "potkit.plaplace", "envelope_check"),
    ("capacity.p_capacity", "potkit.capacity", "p_capacity"),
    ("capacity.annulus_term", "potkit.capacity", "annulus_term"),
    ("capacity.riesz_capacity", "potkit.capacity", "riesz_capacity"),
    ("wolff.wolff_potential", "potkit.wolff", "wolff_potential"),
    ("riesz.riesz_potential", "potkit.riesz", "riesz_potential"),
    ("verify.run_check", "potkit.verify", "run_check"),
    ("penergy.spsolve", "scipy.sparse.linalg", "spsolve"),
)

# (layer, module, base class, method): methods patched on every class of
# the module that defines them itself
METHODS = (
    ("penergy.energy_and_grad", "potkit.penergy", "PEnergyProblem",
     "energy_and_grad"),
    ("measures.radial_mass_profile", "potkit.measures", "Measure",
     "radial_mass_profile"),
    ("sets.sample_points", "potkit.sets", "ParametricSet", "sample_points"),
    ("sets.meets_cells", "potkit.sets", "ParametricSet", "meets_cells"),
)

# layers timed separately per measure kind
KINDS = {"AtomicMeasure": "atomic", "RadialProfileMeasure": "radial",
         "GridMeasure": "grid"}
BY_KIND = ("wolff.wolff_potential", "riesz.riesz_potential")


def _count_results(counts, layer, result):
    """Work counts read from return values."""
    if layer == "penergy.minimize_p_energy":
        counts["penergy.minimize_p_energy.iters"] += result[1].iterations
    elif layer == "capacity.p_capacity":
        counts["capacity.p_capacity.levels"] += result.extras["levels"]
    elif layer == "capacity.riesz_capacity":
        counts["capacity.riesz_capacity.iters"] += result.iterations
        counts["capacity.riesz_capacity.sites"] += result.extras.get("sites", 0)
    elif layer == "sets.sample_points":
        counts["sets.sample_points.points"] += len(result)
    elif layer == "wolff.wolff_potential" and not math.isfinite(result):
        counts["wolff.nonfinite"] += 1


class Tracer:
    """Records spans as [name, parent, start, end] lists, in call order."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    def _wrap(self, layer, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        by_kind = layer in BY_KIND

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer
            if by_kind:
                name = f"{layer}.{KINDS.get(type(args[0]).__name__, 'other')}"
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            _count_results(counts, layer, result)
            return result
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Patch every traced name; the potkit modules must be imported."""
        potkit_modules = [m for name, m in sorted(sys.modules.items())
                          if name == "potkit" or name.startswith("potkit.")]
        for layer, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(layer, original)
            self._patch(sys.modules[module], attr, wrapper)
            for mod in potkit_modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for layer, module, base_name, method in METHODS:
            mod = sys.modules[module]
            base = getattr(mod, base_name)
            for cls in list(vars(mod).values()):
                if (isinstance(cls, type) and issubclass(cls, base)
                        and cls.__module__ == module
                        and method in cls.__dict__):
                    self._patch(cls, method,
                                self._wrap(layer, cls.__dict__[method]))

    def uninstall(self):
        """Restore every patched name, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def layer_metrics(spans, counts) -> dict:
    """Per-layer calls, inclusive seconds (outermost span of each name
    only, so recursion is not counted twice) and self seconds (duration
    minus the direct children's)."""
    out = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, parent, start, end) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end - start - child_time[i]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][1]
        if anc < 0:
            out[f"{name}.s"] += end - start
    out.update(counts)
    return dict(out)
