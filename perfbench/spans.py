"""Outside-in tracing of one ``tollopt optimize`` call.

The tracer replaces layer entry points at the module attribute where the
calling code looks them up (``tollopt.tlp.simulate``, ``tollopt.surrogate.
log_likelihood``, ...), so nothing under ``src/`` knows it is traced.

Two kinds of wrapper:

* span wrappers record (name, start, end, parent) for every call to fit,
  propose, evaluate, simulate, the GA, DIRECT and artifact writing;
* leaf wrappers fold the hot inner calls (one likelihood or acquisition
  evaluation per GA candidate, thousands per fit or proposal) into
  counters on the enclosing span, which keeps the tracing overhead small.

Spans stay in memory; :func:`layer_metrics` turns them into per-layer
counts, busy times and self times after the run.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    covered: float = 0.0     # time of child spans and top-level leaf calls
    leaves: dict = field(default_factory=lambda: defaultdict(LeafCounter))

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


@dataclass
class LeafCounter:
    points: int = 0          # candidates scored; one per call until a layer batches
    failed: int = 0
    seconds: float = 0.0     # inclusive
    self_seconds: float = 0.0


def _points(x) -> int:
    arr = np.asarray(x)
    return int(arr.shape[0]) if arr.ndim == 2 else 1


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._leaf_frames: list[list[float]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._open.append(idx)
        try:
            yield
        finally:
            sp = self.spans[idx]
            sp.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].covered += sp.duration

    def span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def leaf_wrapper(self, name: str, fn, points_arg: tuple[int, str] | None = None,
                     failure: type[BaseException] | None = None):
        """Count calls of ``fn`` on the innermost open span.

        ``points_arg`` gives the (position, name) of the argument whose
        leading axis is the number of candidates scored, so the count stays
        right when a caller batches.  Non-finite results count as failed
        candidates, and ``failure`` raised fails all of them.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 1
            if points_arg is not None:
                pos, key = points_arg
                n = _points(args[pos] if len(args) > pos else kwargs[key])
            frame = [0.0]
            self._leaf_frames.append(frame)
            bad = 0
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if failure is not None:
                    bad = int(np.size(out) - np.count_nonzero(np.isfinite(out)))
                return out
            except BaseException as exc:
                if failure is not None and isinstance(exc, failure):
                    bad = n
                raise
            finally:
                dt = time.perf_counter() - t0
                self._leaf_frames.pop()
                counter = self.spans[self._open[-1]].leaves[name]
                counter.points += n
                counter.failed += bad
                counter.seconds += dt
                counter.self_seconds += dt - frame[0]
                if self._leaf_frames:
                    self._leaf_frames[-1][0] += dt
                else:
                    self.spans[self._open[-1]].covered += dt
        return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the layer entry points of the imported ``tollopt`` package."""
    from tollopt import cli, direct, infill, surrogate, tlp
    from tollopt.surrogate import NumericalError

    span, leaf = tracer.span_wrapper, tracer.leaf_wrapper
    patches = [
        (tlp, "simulate", span("simnet.simulate", tlp.simulate)),
        (tlp, "fit", span("surrogate.fit", tlp.fit)),
        (tlp, "propose_infill", span("infill.propose", tlp.propose_infill)),
        (tlp, "build_initial_plan", span("doe.initial_plan", tlp.build_initial_plan)),
        (tlp, "evaluate_toll", span("tlp.evaluate", tlp.evaluate_toll)),
        (tlp, "repair_smoothing", leaf("infill.repair", tlp.repair_smoothing)),
        (cli, "write_run_dir", span("tlp.write_run_dir", cli.write_run_dir)),
        (surrogate, "log_likelihood",
         leaf("surrogate.loglik", surrogate.log_likelihood, points_arg=(2, "theta"), failure=NumericalError)),
        (surrogate, "ga_maximize", span("ga.maximize", surrogate.ga_maximize)),
        (infill, "acquisition_value", leaf("infill.acq", infill.acquisition_value, points_arg=(1, "x_unit"))),
        (infill, "predict", leaf("surrogate.predict", infill.predict, points_arg=(1, "x"))),
        (infill, "repair_smoothing", leaf("infill.repair", infill.repair_smoothing)),
        (infill, "ga_maximize", span("ga.maximize", infill.ga_maximize)),
        (direct, "potentially_optimal", span("direct.select", direct.potentially_optimal)),
        (direct, "direct_minimize", span("direct.minimize", direct.direct_minimize)),
    ]
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    for mod, attr, wrapped in patches:
        setattr(mod, attr, wrapped)
    try:
        yield tracer
    finally:
        for mod, attr, orig in originals:
            setattr(mod, attr, orig)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, busy times and self times of a traced run.

    ``tracer.spans[0]`` is the root span around the whole call; its self
    time is what ``optimize`` spends outside every traced layer.  The
    ``SELF_TIME_PARTS`` entries partition the root span's duration.
    """
    n = defaultdict(int)
    incl = defaultdict(float)
    self_t = defaultdict(float)
    leaves = defaultdict(LeafCounter)
    for sp in tracer.spans:
        n[sp.name] += 1
        incl[sp.name] += sp.duration
        self_t[sp.name] += sp.self_time
        for name, c in sp.leaves.items():
            agg = leaves[name]
            agg.points += c.points
            agg.failed += c.failed
            agg.seconds += c.seconds
            agg.self_seconds += c.self_seconds

    children = defaultdict(list)
    for sp in tracer.spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    fallback_n = sum(1 for i, sp in enumerate(tracer.spans) if sp.name == "infill.propose"
                     and sum(c.name == "ga.maximize" for c in children[i]) > 1)
    direct_sampling = sum(c.duration for i, sp in enumerate(tracer.spans)
                          if sp.name == "direct.minimize"
                          for c in children[i] if c.name == "tlp.evaluate")

    loglik, acq = leaves["surrogate.loglik"], leaves["infill.acq"]
    predict, repair = leaves["surrogate.predict"], leaves["infill.repair"]
    root_span = tracer.spans[0]
    m = {
        "simnet.reps_n": n["simnet.simulate"],
        "simnet.simulate_s": incl["simnet.simulate"],
        "simnet.s_per_rep": _ratio(incl["simnet.simulate"], n["simnet.simulate"]),
        "tlp.evaluate_n": n["tlp.evaluate"],
        "tlp.evaluate_s": incl["tlp.evaluate"],
        "tlp.evaluate_self_s": self_t["tlp.evaluate"],
        "tlp.write_run_dir_s": incl["tlp.write_run_dir"],
        "tlp.driver_self_s": root_span.self_time,
        "doe.initial_plan_s": incl["doe.initial_plan"],
        "surrogate.fit_n": n["surrogate.fit"],
        "surrogate.fit_s": incl["surrogate.fit"],
        "surrogate.loglik_n": loglik.points,
        "surrogate.loglik_s": loglik.seconds,
        "surrogate.loglik_us_per_eval": 1e6 * _ratio(loglik.seconds, loglik.points),
        "surrogate.loglik_failed_ratio": _ratio(loglik.failed, loglik.points),
        "surrogate.predict_points": predict.points,
        "surrogate.predict_s": predict.seconds,
        "surrogate.self_s": self_t["surrogate.fit"] + loglik.self_seconds + predict.self_seconds,
        "ga.calls_n": n["ga.maximize"],
        "ga.self_s": self_t["ga.maximize"],
        "infill.propose_n": n["infill.propose"],
        "infill.propose_s": incl["infill.propose"],
        "infill.acq_points": acq.points,
        "infill.acq_s": acq.seconds,
        "infill.acq_us_per_point": 1e6 * _ratio(acq.seconds, acq.points),
        "infill.repair_s": repair.seconds,
        "infill.fallback_n": fallback_n,
        "infill.self_s": (self_t["infill.propose"] + acq.self_seconds
                          + repair.self_seconds),
        "direct.minimize_s": incl["direct.minimize"],
        "direct.self_s": incl["direct.minimize"] - direct_sampling,
        "direct.select_n": n["direct.select"],
        "direct.select_s": incl["direct.select"],
    }
    return m


# Layer self times that partition the traced optimize_s.
SELF_TIME_PARTS = ("simnet.simulate_s", "doe.initial_plan_s", "tlp.evaluate_self_s",
                   "tlp.write_run_dir_s", "surrogate.self_s", "ga.self_s",
                   "infill.self_s", "direct.self_s", "tlp.driver_self_s")
