"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces public functions and methods by timing wrappers where
their callers look them up (module globals of every importing module, and
class attributes), keeps one span per call in memory, and reduces the spans
to the per-layer metrics after the run. Nothing inside the package changes.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from serrin_torsion import (
    ball_solver,
    curvature,
    foliation,
    profile,
    reduced,
    serrin,
    sphere_spectral,
)

# A boundary perturbation whose angular part stays below this is roundoff.
ROUNDOFF_VBAR = 1e-12


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "ok", "attrs")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = time.perf_counter()
        self.end = None
        self.ok = False
        self.attrs = None

    def duration(self):
        return self.end - self.start

    def to_record(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "ok": self.ok,
            "attrs": self.attrs,
        }


def _jet_attrs(args, kwargs, out):
    state = args[4] if len(args) > 4 else kwargs.get("state")
    if state is None:
        return None
    return {"vbar_max": float(np.abs(state.vbar.coeffs).max(initial=0.0))}


def _exp_attrs(args, kwargs, out):
    tangent = np.atleast_2d(np.asarray(args[2], dtype=float))
    return {"single_axis": bool(np.count_nonzero(tangent) == 1)}


# (owner, attribute, span name, attrs(args, kwargs, result) or None).
# Functions imported by name are patched in every module that imports them.
_CLASS_TARGETS = [
    (curvature.MetricJet, "__init__", "curvature.jet_build", _jet_attrs),
    (curvature.MetricJet, "rho_jet", "curvature.rho_jet", None),
    (curvature.MetricJet, "metric_and_grad", "curvature.metric", None),
    (curvature.ConformalSphere2D, "exp", "curvature.exp", _exp_attrs),
    (
        sphere_spectral.SphereBasis,
        "eval_matrix",
        "sphere_spectral.harmonic_eval",
        lambda a, k, out: {"bytes": int(out.nbytes)},
    ),
    (
        sphere_spectral.SphereBasis,
        "eval_grad_matrix",
        "sphere_spectral.harmonic_eval",
        lambda a, k, out: {"bytes": int(out.nbytes)},
    ),
    (
        sphere_spectral.SphereBasis,
        "eval_hess_matrix",
        "sphere_spectral.harmonic_eval",
        lambda a, k, out: {"bytes": int(out.nbytes)},
    ),
    (ball_solver.LaplaceContext, "__init__", "ball_solver.context", None),
    (ball_solver.BallField, "derivatives", "ball_solver.derivatives", None),
    (ball_solver.BallField, "from_values", "ball_solver.poisson", None),
    (
        serrin.SerrinProblem,
        "solve",
        "serrin.solve",
        lambda a, k, out: {"steps": len(out.iterations)},
    ),
]
_FUNCTION_TARGETS = [
    ("poisson_solve", "ball_solver.poisson", None),
    (
        "dirichlet_solve_full",
        "ball_solver.dirichlet",
        lambda a, k, out: {"iterations": int(out[1]["iterations"])},
    ),
    ("neumann_trace", "ball_solver.neumann", None),
    ("reduced_functional", "reduced.functional", None),
    (
        "find_critical",
        "reduced.search",
        lambda a, k, out: {"solves": int(out[2]["solves"])},
    ),
    ("minimize", "reduced.fallback", None),
    ("build_foliation_chart", "foliation.chart", None),
    ("certify_foliation", "foliation.chart", None),
    ("ball_volume_at", "profile.volume", None),
    ("matched_radius", "profile.match", None),
    ("J_geodesic_ball", "profile.energy", None),
]
_MODULES = [ball_solver, serrin, reduced, foliation, profile]


class Tracer:
    """In-memory span recorder; op is the index of the running operation."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        # wall time spent in the wrappers outside the wrapped calls
        self.bookkeeping_s = 0.0

    def _wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            span = Span(name, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                span.ok = True
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, out)
            self.bookkeeping_s += (
                span.start - enter + time.perf_counter() - span.end
            )
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, attrs in _CLASS_TARGETS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, attrs))
                else:
                    wrapped = self._wrap(name, raw, attrs)
                setattr(owner, attr, wrapped)
            for attr, name, attrs in _FUNCTION_TARGETS:
                for module in _MODULES:
                    if attr in vars(module):
                        raw = getattr(module, attr)
                        saved.append((module, attr, raw))
                        setattr(module, attr, self._wrap(name, raw, attrs))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- reduction ------------------------------------------------------------

    def _ancestor_names(self, span):
        names = set()
        i = span.parent
        while i is not None:
            names.add(self.spans[i].name)
            i = self.spans[i].parent
        return names

    def self_times(self):
        """Duration minus the time covered by direct children, per span."""
        out = [s.duration() for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration()
        return out

    def op_counts(self):
        """Per-operation counts that the untraced run also sees."""
        counts = defaultdict(lambda: {"outer_steps": 0, "search_solves": 0})
        for s in self.spans:
            if s.ok and s.name == "serrin.solve":
                counts[s.op]["outer_steps"] += s.attrs["steps"]
                if "reduced.search" in self._ancestor_names(s):
                    counts[s.op]["search_solves"] += 1
        return {op: counts[op] for op in sorted(counts)}

    def layer_metrics(self):
        """The per-layer metrics, {name: (value, unit)}."""
        selfs = self.self_times()
        total = defaultdict(float)  # outermost spans of a name, inclusive
        own = defaultdict(float)  # self time
        calls = defaultdict(int)
        attr_sum = defaultdict(float)
        jets = roundoff = jac = search_solves = leaf_solves = 0
        last_exp_single = False
        for i, s in enumerate(self.spans):
            ancestors = self._ancestor_names(s)
            calls[s.name] += 1
            own[s.name] += selfs[i]
            if s.name not in ancestors:
                total[s.name] += s.duration()
            for key, val in (s.attrs or {}).items():
                attr_sum[s.name, key] += val
            if s.name == "curvature.jet_build" and s.attrs is not None:
                jets += 1
                roundoff += s.attrs["vbar_max"] < ROUNDOFF_VBAR
            elif s.name == "curvature.exp" and "reduced.search" in ancestors:
                last_exp_single = s.attrs["single_axis"]
            elif s.name == "serrin.solve" and s.ok:
                if "foliation.chart" in ancestors:
                    leaf_solves += 1
                if "reduced.search" in ancestors:
                    search_solves += 1
                    if last_exp_single and "reduced.fallback" not in ancestors:
                        jac += 1
                last_exp_single = False
        return {
            "curvature.rho_jet_s": (total["curvature.rho_jet"], "s"),
            "curvature.rho_jet_calls": (calls["curvature.rho_jet"], "count"),
            "curvature.metric_s": (own["curvature.metric"], "s"),
            "curvature.roundoff_deform_frac": (
                roundoff / jets if jets else 0.0,
                "ratio",
            ),
            "sphere_spectral.harmonic_eval_s": (
                total["sphere_spectral.harmonic_eval"],
                "s",
            ),
            "sphere_spectral.harmonic_eval_bytes": (
                int(attr_sum["sphere_spectral.harmonic_eval", "bytes"]),
                "bytes",
            ),
            "ball_solver.context_s": (own["ball_solver.context"], "s"),
            "ball_solver.derivatives_s": (total["ball_solver.derivatives"], "s"),
            "ball_solver.derivatives_calls": (
                calls["ball_solver.derivatives"],
                "count",
            ),
            "ball_solver.poisson_s": (total["ball_solver.poisson"], "s"),
            "ball_solver.neumann_s": (total["ball_solver.neumann"], "s"),
            "ball_solver.dirichlet_solves": (
                calls["ball_solver.dirichlet"],
                "count",
            ),
            "ball_solver.picard_iters": (
                int(attr_sum["ball_solver.dirichlet", "iterations"]),
                "count",
            ),
            "serrin.outer_steps": (int(attr_sum["serrin.solve", "steps"]), "count"),
            "serrin.solve_self_s": (own["serrin.solve"], "s"),
            "reduced.accounting_s": (own["reduced.functional"], "s"),
            "reduced.search_solves": (search_solves, "count"),
            "reduced.jacobian_solve_frac": (
                jac / search_solves if search_solves else 0.0,
                "ratio",
            ),
            "reduced.search_fallbacks": (calls["reduced.fallback"], "count"),
            "foliation.leaf_solves": (leaf_solves, "count"),
            "foliation.chart_s": (own["foliation.chart"], "s"),
            "profile.volume_evals": (calls["profile.volume"], "count"),
            "profile.match_s": (total["profile.match"], "s"),
            "profile.energy_s": (total["profile.energy"], "s"),
        }
