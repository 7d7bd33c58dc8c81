"""Spans around adnlab's public functions, installed from outside.

The tracer wraps each traced function in every namespace that binds it.
Several adnlab modules import names at import time (``contin`` binds
``jacobian_fd``, ``network`` binds ``gfl_rates`` and ``dval_rate``, ``cli``
binds ``integrate``), so wrapping only the defining module would silently
miss those call sites.  Methods are wrapped on their class, and
``numpy.linalg.solve`` on the ``numpy.linalg`` module, which every adnlab
call site looks up at call time.

A span records its name, start, end, parent and whether it raised.  Spans
are appended to flat arrays in call order, so a span's descendants are the
spans that follow it and start before it ends.  Nothing is aggregated
while the program runs; :func:`layer_metrics` derives every count, time
and ratio from the spans afterwards.
"""

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute, owning class or None).  The layer is the
# part of the span name before the first dot.
TARGETS = (
    ("scenario.load", "adnlab.scenario", "load_scenario", None),
    ("scenario.build", "adnlab.scenario", "build", "Scenario"),
    ("network.residual", "adnlab.engine", "residual", "DaeSystem"),
    ("network.limiter_activity", "adnlab.engine", "limiter_activity",
     "DaeSystem"),
    ("network.outputs", "adnlab.network", "outputs", "AssembledSystem"),
    ("converters.gfl_rates", "adnlab.converters", "gfl_rates", None),
    ("converters.gfm_rates", "adnlab.converters", "gfm_rates", None),
    ("val.qval_correction", "adnlab.val", "qval_correction", None),
    ("val.dval_rate", "adnlab.val", "dval_rate", None),
    ("limits.sat_vector", "adnlab.limits", "sat_vector", None),
    ("limits.anti_windup_rate", "adnlab.limits", "anti_windup_rate", None),
    ("limits.rate_window", "adnlab.limits", "rate_window", None),
    ("limits.smooth_deadband", "adnlab.limits", "smooth_deadband", None),
    ("engine.jacobian", "adnlab.engine", "jacobian_fd", None),
    ("engine.newton", "adnlab.engine", "newton_equilibrium", None),
    ("engine.reduced_matrix", "adnlab.engine", "reduced_state_matrix", None),
    ("engine.eig", "adnlab.engine", "eigenvalues", None),
    ("engine.integrate", "adnlab.engine", "integrate", None),
    ("engine.solve", "numpy.linalg", "solve", None),
    ("contin.continue", "adnlab.contin", "continue_branch", None),
    ("contin.locate", "adnlab.contin", "locate_all", None),
    ("contin.boundary", "adnlab.contin", "trace_boundary_2d", None),
    ("secondary.run", "adnlab.secondary", "run_recursive", None),
    ("secondary.sensitivity", "adnlab.secondary", "gain_sensitivity", None),
    ("secondary.update", "adnlab.secondary", "solve_update", None),
    ("cfreq.bus", "adnlab.cfreq", "cf_of_bus", None),
    ("cfreq.pll", "adnlab.cfreq", "pll_internal_frequency", None),
    ("cfreq.decompose", "adnlab.cfreq", "decompose_converter_cf", None),
)

# Span the runner opens around each ``run_command`` call.
STUDY = "cli.run_command"

# Counts read from return values, keyed by span name.
RETURN_COUNTS = {
    "engine.newton": lambda sol: {"engine.newton_iters": sol.iterations},
    "engine.integrate": lambda traj: {"engine.steps": len(traj.times) - 1},
    "contin.continue": lambda br: {"contin.points": len(br.points),
                                   "contin.truncated": int(br.truncated)},
    "contin.locate": lambda recs: {"contin.records": len(recs)},
    "contin.boundary": lambda bd: {
        "contin.boundary_rows": len(bd.rows),
        "contin.boundary_error_rows": sum(r.kind == "error" for r in bd.rows)},
    "secondary.run": lambda hist: {
        "secondary.iterations": len(hist.iterations),
        "secondary.aborted": int(bool(hist.aborted))},
}


class Tracer:
    """In-memory span recorder; install wrappers with :meth:`installed`."""

    def __init__(self):
        self.names = [name for name, *_ in TARGETS] + [STUDY]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.counts = {}
        self._stack = [-1]

    def _open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.raised.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self._open(self._ids[name])
        try:
            yield
        except BaseException:
            self.raised[i] = 1
            raise
        finally:
            self._close(i)

    def _wrap(self, name, fn):
        nid = self._ids[name]
        counter = RETURN_COUNTS.get(name)
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[i] = 1
                raise
            finally:
                tracer._close(i)
            if counter is not None:
                for key, value in counter(result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target in every namespace binding it; undo on exit."""
        undo = []
        try:
            for name, module, attr, owner in TARGETS:
                mod = sys.modules[module]
                if owner is not None:
                    cls = getattr(mod, owner)
                    fn = cls.__dict__[attr]
                    undo.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(name, fn))
                    continue
                fn = getattr(mod, attr)
                wrapper = self._wrap(name, fn)
                for ns in binding_namespaces(fn, module, attr):
                    undo.append((ns, attr, fn))
                    setattr(ns, attr, wrapper)
            yield self
        finally:
            for ns, attr, fn in reversed(undo):
                setattr(ns, attr, fn)

    def arrays(self):
        """Spans as numpy arrays (times in perf_counter nanoseconds)."""
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.int64).copy(),
                "end": np.frombuffer(self.end, dtype=np.int64).copy(),
                "raised": np.frombuffer(self.raised, dtype=np.int8).copy()}

    def save(self, path):
        """Write the spans and their name table to a compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names),
                            **self.arrays())


def binding_namespaces(fn, module, attr):
    """The defining module plus every loaded adnlab module binding ``fn``
    as ``attr``."""
    found = [sys.modules[module]]
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod in found:
            continue
        if mod_name == "adnlab" or mod_name.startswith("adnlab."):
            if getattr(mod, attr, None) is fn:
                found.append(mod)
    return found


class SpanTable:
    """Derived views of a tracer's spans: self times and ancestry masks."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.raised = a["raised"]
        self.dur = (a["end"] - a["start"]) * 1e-9
        n = self.name.size
        has_parent = self.parent >= 0
        child_sum = np.bincount(self.parent[has_parent],
                                weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child_sum[:n]
        # Spans are stored in call order, so a span's descendants are the
        # contiguous run of spans that start before it ends.
        self._stop = np.searchsorted(a["start"], a["end"], side="left")

    def of(self, name):
        return self.name == self.ids[name]

    def in_layer(self, layer):
        ids = [i for i, n in enumerate(self.names)
               if n.split(".", 1)[0] == layer]
        return np.isin(self.name, ids)

    def under(self, names):
        """Mask of spans with an ancestor among ``names``."""
        marks = np.zeros(self.name.size + 1, dtype=np.int64)
        roots = np.flatnonzero(np.isin(self.name,
                                       [self.ids[n] for n in names]))
        np.add.at(marks, roots + 1, 1)
        np.add.at(marks, self._stop[roots], -1)
        return np.cumsum(marks)[:-1] > 0

    def child_of(self, name):
        """Mask of spans whose direct parent is a ``name`` span."""
        has_parent = self.parent >= 0
        out = np.zeros(self.name.size, dtype=bool)
        out[has_parent] = self.name[self.parent[has_parent]] == self.ids[name]
        return out

    def descendants(self, name):
        """Index range ``(lo, hi)`` of the descendants of each ``name`` span."""
        return [(int(i) + 1, int(self._stop[i]))
                for i in np.flatnonzero(self.of(name))]


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts, times (s) and ratios of one traced pass."""
    t = SpanTable(tracer)
    c = tracer.counts

    def n(name, mask=None):
        m = t.of(name) if mask is None else t.of(name) & mask
        return int(np.count_nonzero(m))

    def incl(name):
        return float(t.dur[t.of(name)].sum())

    def self_s(mask):
        return float(t.self_time[mask].sum())

    jac = t.of("engine.jacobian")
    under_continue = t.under(["contin.continue"])
    under_locate = t.under(["contin.locate"])
    under_cfreq = t.under(["cfreq.bus", "cfreq.pll", "cfreq.decompose"])
    residuals = n("network.residual")
    jacobians = n("engine.jacobian")
    m = {
        "scenario.load_s": incl("scenario.load"),
        "scenario.build_s": incl("scenario.build"),
        "network.residual_calls": residuals,
        "network.residual_us": _ratio(incl("network.residual") * 1e6,
                                      residuals),
        "network.self_s": self_s(t.in_layer("network")),
        "network.outputs_calls": n("network.outputs"),
        "network.outputs_s": incl("network.outputs"),
        "converters.gfl_rates_s": self_s(t.of("converters.gfl_rates")),
        "converters.gfm_rates_s": self_s(t.of("converters.gfm_rates")),
        "val.s": self_s(t.in_layer("val")),
        "limits.s": self_s(t.in_layer("limits")),
        "engine.jacobian_calls": jacobians,
        "engine.jacobian_s": incl("engine.jacobian"),
        "engine.residuals_per_jacobian": _ratio(
            n("network.residual", t.child_of("engine.jacobian")), jacobians),
        "engine.solve_calls": n("engine.solve"),
        "engine.solve_s": incl("engine.solve"),
        "engine.eig_calls": n("engine.eig"),
        "engine.eig_s": incl("engine.eig"),
        "engine.reduced_matrix_calls": n("engine.reduced_matrix"),
        "engine.integrate_s": incl("engine.integrate"),
        "engine.steps": c.get("engine.steps", 0),
        "engine.step_jacobians": n("engine.jacobian",
                                   t.child_of("engine.integrate")),
        "engine.newton_calls": n("engine.newton"),
        "engine.newton_iters": c.get("engine.newton_iters", 0),
        "engine.newton_failed": int(np.count_nonzero(
            t.of("engine.newton") & (t.raised > 0))),
        "engine.newton_s": incl("engine.newton"),
        "engine.self_s": self_s(t.in_layer("engine")),
        "contin.continue_s": incl("contin.continue"),
        "contin.points": c.get("contin.points", 0),
        "contin.jacobians_per_point": _ratio(
            np.count_nonzero(jac & under_continue),
            c.get("contin.points", 0)),
        "contin.locate_s": incl("contin.locate"),
        "contin.records": c.get("contin.records", 0),
        "contin.jacobians_per_record": _ratio(
            np.count_nonzero(jac & under_locate),
            c.get("contin.records", 0)),
        "contin.boundary_s": incl("contin.boundary"),
        "contin.boundary_rows": c.get("contin.boundary_rows", 0),
        "contin.boundary_error_rows": c.get("contin.boundary_error_rows", 0),
        "contin.truncated": c.get("contin.truncated", 0),
        "contin.self_s": self_s(t.in_layer("contin")),
        "secondary.run_s": incl("secondary.run"),
        "secondary.iterations": c.get("secondary.iterations", 0),
        "secondary.sensitivity_s": incl("secondary.sensitivity"),
        "secondary.update_s": incl("secondary.update"),
        "secondary.newton_per_iteration": _ratio(
            n("engine.newton", t.under(["secondary.run"])),
            c.get("secondary.iterations", 0)),
        "secondary.aborted": c.get("secondary.aborted", 0),
        "secondary.self_s": self_s(t.in_layer("secondary")),
        "cfreq.s": sum(incl(name) for name in
                       ("cfreq.bus", "cfreq.pll", "cfreq.decompose")),
        "cfreq.outputs_calls": n("network.outputs", under_cfreq),
        "cfreq.self_s": self_s(t.in_layer("cfreq")),
        "cli.self_s": self_s(t.of(STUDY)),
        "scenario.self_s": self_s(t.in_layer("scenario")),
    }
    m["trace.spans"] = int(t.name.size)
    return m


def study_counts(tracer: Tracer) -> list:
    """(residual calls, Jacobian builds) for each traced study, in order."""
    t = SpanTable(tracer)
    res = t.of("network.residual")
    jac = t.of("engine.jacobian")
    return [(int(np.count_nonzero(res[lo:hi])),
             int(np.count_nonzero(jac[lo:hi])))
            for lo, hi in t.descendants(STUDY)]
