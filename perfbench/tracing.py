"""Spans and call counts around the calls into shmgp's modules.

The benchmark never edits the program.  Instead it replaces, for the
duration of a run, each function under the module attribute its caller
looks it up by (``shmgp.gp.build_gram`` serves fit and predict,
``shmgp.tuning.build_gram`` the GLS mean, ``shmgp.statespace.kalman_filter``
the latent-force objective, and so on) with a wrapper that

* always counts the call, so exact work counts can be checked on every run;
* adds its wall time to ``Tracer.busy`` when its name is in
  ``Tracer.clocked`` (the spans a workload's throughput is measured over);
* when ``Tracer.timing`` is on, also records a span: name, start, end,
  the enclosing span, the unit of work it belongs to and any notes
  (points predicted, filter steps, jitter retries, a non-finite objective).

``install_core`` wraps only what every run needs: the counted calls, the
swarm and its objective, and the read-side calls whose time throughput is
measured over.  ``install_layers`` wraps every other layer boundary; it is
installed only around traced units of work (and a traced run's set-up), so
untraced units run with the few core wrappers alone.

Spans stay in memory and are written out once the run ends.  A span's self
time is its duration minus the time covered by its child spans; calls are
synchronous and single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import math
import statistics
from collections import Counter
from dataclasses import asdict, dataclass, field

SETUP = -1  # unit index of spans recorded while setting up


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    unit: int  # unit of work, SETUP during set-up
    error: bool = False
    notes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Owns the wrappers, the call counters and the recorded spans."""

    def __init__(self, clock):
        self.clock = clock
        self.timing = False
        self.unit = SETUP
        self.counts: Counter = Counter()
        self.clocked: frozenset = frozenset()
        self.busy: Counter = Counter()  # seconds spent in each clocked name
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name, fn, note=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's
        (args, kwargs); ``note(args, kwargs, result)`` returns span notes."""

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            self.counts[label] += 1
            if not self.timing:
                if label not in self.clocked:
                    return fn(*args, **kwargs)
                start = self.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.busy[label] += self.clock() - start
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(label, self.clock(), math.nan, parent, self.unit)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
                if label in self.clocked:
                    self.busy[label] += span.duration
            if note is not None:
                span.notes = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, module, attr, name, note=None, replacement=None):
        """Wrap ``module.attr`` (or ``replacement``, standing in for it)."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, replacement or original, note))

    def restore(self, keep: int = 0) -> None:
        """Put patched attributes back, newest first, until ``keep`` remain."""
        while len(self._patched) > keep:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def span_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# ---------------------------------------------------------------------------
# what gets wrapped


def _gram_name(args, kwargs):
    square = len(args) < 3 and kwargs.get("X_prime") is None
    return "kernels.gram" if square else "kernels.cross_gram"


def _rows(args, kwargs, result):
    return {"points": int(len(result.mean))}


def _pairs(args, kwargs, result):
    return {"points": int(len(result[0]))}


def _steps(args, kwargs, result):
    return {"steps": int(len(result))}


def _filter_steps(args, kwargs, result):
    return {"steps": int(result.means.shape[0])}


def _nonfinite(args, kwargs, result):
    return {"nonfinite": 0 if math.isfinite(float(result)) else 1}


def _jitter_note(gp):
    """Ladder steps taken, derived from the returned jitter and diag(A)."""
    import numpy as np

    def note(args, kwargs, result):
        A = args[0] if args else kwargs["A"]
        base = float(np.mean(np.diag(A)))
        if base <= 0.0 or not np.isfinite(base):
            base = 1.0
        retries = round(math.log10(result[1] / (gp.JITTER_START * base)))
        return {"retries": int(retries)}

    return note


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


_GENERATORS = ("simulate_sdof", "generate_wave_loading", "generate_trend_series",
               "generate_bounded_field", "simulate_mdof_chain", "band_limited_force")


def _modules():
    return {name: importlib.import_module(f"shmgp.{name}") for name in (
        "cli", "experiments", "generators", "gp", "model_io", "narx",
        "reduced_rank", "statespace", "tuning")}


def install_core(tracer: Tracer) -> None:
    """Wrap the calls every run counts or clocks."""
    m = _modules()

    def pso(module):
        original = module.pso_minimize

        def minimize(objective, cfg):
            return original(tracer.wrap("tuning.objective", objective, _nonfinite), cfg)

        tracer.patch(module, "pso_minimize", "pso.minimize", replacement=minimize)

    pso(m["tuning"])
    pso(m["statespace"])
    tracer.patch(m["tuning"], "build_gram", _gram_name)
    tracer.patch(m["gp"], "build_gram", _gram_name)
    tracer.patch(m["gp"], "fit_exact", "gp.fit")
    tracer.patch(m["gp"], "predict", "gp.predict", _rows)
    tracer.patch(m["statespace"], "kalman_filter", "statespace.filter", _filter_steps)
    tracer.patch(m["experiments"], "estimate_force", "statespace.estimate_force")
    tracer.patch(m["narx"], "simulate_free_run", "narx.free_run", _steps)
    tracer.patch(m["cli"], "main", _cli_name)


def install_layers(tracer: Tracer) -> int:
    """Wrap every other layer boundary of shmgp under the names callers use;
    returns the argument to ``Tracer.restore`` that takes them off again."""
    keep = len(tracer._patched)
    m = _modules()
    for name in _GENERATORS:
        tracer.patch(m["generators"], name, "generators.sim")
        tracer.patch(m["experiments"], name, "generators.sim")
    tracer.patch(m["experiments"], "run_experiment", "experiments.run")
    tracer.patch(m["experiments"], "tune_exact_gp", "tuning.tune")
    tracer.patch(m["experiments"], "gls_linear_mean", "tuning.gls")
    tracer.patch(m["tuning"], "gls_linear_mean", "tuning.gls")
    tracer.patch(m["gp"], "chol_with_jitter", "gp.chol", _jitter_note(m["gp"]))
    tracer.patch(m["reduced_rank"], "chol_with_jitter", "gp.chol", _jitter_note(m["gp"]))
    tracer.patch(m["statespace"], "rts_smoother", "statespace.rts")
    tracer.patch(m["statespace"], "build_latent_force_model", "statespace.build")
    tracer.patch(m["statespace"], "discretize", "statespace.discretize")
    tracer.patch(m["experiments"], "simulate_free_run", "narx.free_run", _steps)
    for module in (m["experiments"], m["narx"]):
        tracer.patch(module, "build_lag_matrix", "narx.lag")
    tracer.patch(m["narx"], "predict_osa", "narx.predict_osa")
    tracer.patch(m["experiments"], "fit_reduced", "reduced_rank.fit")
    for module in (m["experiments"], m["reduced_rank"]):
        tracer.patch(module, "predict_reduced", "reduced_rank.predict", _pairs)
    for name in ("write_csv", "atomic_write_text", "atomic_write_bytes",
                 "save_exact_gp", "save_narx", "save_reduced_rank"):
        tracer.patch(m["model_io"], name, "model_io.write")
    tracer.patch(m["model_io"], "load_model", "model_io.load")
    tracer.patch(m["model_io"], "read_csv", "model_io.read_csv")
    return keep


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def outermost(spans: list[Span], index: int) -> bool:
    """True unless the span sits inside a span of the same name."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == spans[index].name:
            return False
        parent = spans[parent].parent
    return True


def layer_metrics(spans: list[Span], unit_solve_s: dict[int, float],
                  untraced_solve_s: list[float]) -> dict:
    """Per-layer figures from a traced run.

    ``unit_solve_s`` maps each traced unit of work to its wall time.  Per-call
    figures average every traced call, set-up included; counts, totals and
    shares are per traced unit.  A figure whose layer did no work in the
    run is None.
    """
    own = self_times(spans)
    units = sorted(unit_solve_s)
    n_units = max(len(units), 1)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name, in_units=False):
        found = by_name.get(name, [])
        return [i for i in found if spans[i].unit != SETUP] if in_units else found

    def per_call_ms(name, self_only=False):
        found = idx(name)
        if not found:
            return None
        return 1e3 * sum(own[i] if self_only else spans[i].duration for i in found) / len(found)

    def per_unit(name, value):
        found = idx(name, in_units=True)
        return sum(value(i) for i in found) / n_units if found else None

    def unit_total_ms(name, self_only=False):
        if self_only:
            return per_unit(name, lambda i: 1e3 * own[i])
        return per_unit(name, lambda i: 1e3 * spans[i].duration if outermost(spans, i) else 0.0)

    def unit_count(name):
        return per_unit(name, lambda i: 1.0)

    def per_item_us(name, key):
        found = idx(name)
        items = sum(spans[i].notes.get(key, 0) for i in found)
        if not items:
            return None
        return 1e6 * sum(spans[i].duration for i in found) / items

    def note_sum(name, key):
        return per_unit(name, lambda i: spans[i].notes.get(key, 0))

    evals = unit_count("tuning.objective")
    nonfinite = note_sum("tuning.objective", "nonfinite")
    gram_total = unit_total_ms("kernels.gram")
    mean_solve = statistics.fmean(unit_solve_s[u] for u in units) if units else None
    uncovered = []
    for u in units:
        covered = sum(s.duration for s in spans if s.unit == u and s.parent < 0)
        uncovered.append((unit_solve_s[u] - covered) / unit_solve_s[u])
    gen = [i for i in idx("generators.sim") if outermost(spans, i)]
    gen_setup = sum(spans[i].duration for i in gen if spans[i].unit == SETUP)
    gen_units = sum(spans[i].duration for i in gen if spans[i].unit != SETUP)
    chol_failures = sum(1 for i in idx("gp.chol", in_units=True) if spans[i].error)

    return {
        "experiments.self_ms": unit_total_ms("experiments.run", self_only=True),
        "generators.sim_s": (gen_setup + gen_units / n_units) if gen else None,
        "tuning.evals": evals,
        "tuning.nonfinite_frac": (nonfinite / evals) if evals else None,
        "tuning.objective_ms": per_call_ms("tuning.objective"),
        "tuning.gls_ms": per_call_ms("tuning.gls"),
        "pso.self_ms": unit_total_ms("pso.minimize", self_only=True),
        "gp.fit_ms": per_call_ms("gp.fit"),
        "gp.fit_self_ms": per_call_ms("gp.fit", self_only=True),
        "gp.chol_ms": per_call_ms("gp.chol"),
        "gp.jitter_retries": note_sum("gp.chol", "retries"),
        "gp.chol_failures": (chol_failures / n_units) if idx("gp.chol", True) else None,
        "gp.predict_us_per_point": per_item_us("gp.predict", "points"),
        "kernels.gram_ms": per_call_ms("kernels.gram"),
        "kernels.gram_calls": unit_count("kernels.gram"),
        "kernels.gram_share": (gram_total / 1e3 / mean_solve) if gram_total else None,
        "kernels.cross_gram_ms": unit_total_ms("kernels.cross_gram"),
        "statespace.filter_ms": per_call_ms("statespace.filter"),
        "statespace.filter_step_us": per_item_us("statespace.filter", "steps"),
        "statespace.rts_ms": per_call_ms("statespace.rts"),
        "statespace.build_ms": per_call_ms("statespace.build", self_only=True),
        "statespace.discretize_ms": per_call_ms("statespace.discretize"),
        "statespace.passes": unit_count("statespace.filter"),
        "narx.free_run_step_us": per_item_us("narx.free_run", "steps"),
        "narx.lag_ms": unit_total_ms("narx.lag"),
        "reduced_rank.fit_ms": per_call_ms("reduced_rank.fit"),
        "reduced_rank.predict_us_per_point": per_item_us("reduced_rank.predict", "points"),
        "model_io.load_ms": per_call_ms("model_io.load"),
        "model_io.read_csv_ms": per_call_ms("model_io.read_csv"),
        "model_io.write_ms": unit_total_ms("model_io.write"),
        "cli.predict_ms": per_call_ms("cli.predict"),
        "trace.uncovered_share": statistics.fmean(uncovered) if uncovered else None,
        "trace.overhead_s": (statistics.median(unit_solve_s.values())
                             - statistics.median(untraced_solve_s))
        if units and untraced_solve_s else None,
    }
