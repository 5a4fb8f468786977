"""Outside-in tracer for one in-process ``vacantlab.cli.main`` run.

The tracer wraps public functions of the package's modules from outside:
each wrapper is rebound in every ``vacantlab`` module namespace that holds
the original, because modules import helpers by name (``walk`` and
``experiments`` call their own references to ``graph_from_edges``,
``components`` and ``sample_er``). Nothing under ``src/`` is edited.

Spans (name, start, end, parent, run id, work count) are kept in memory and
written out when the run ends; ``layer_metrics`` derives self times, call
counts and work rates from them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def _bound(fn, args, kwargs):
    sig = inspect.signature(fn)
    b = sig.bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _walker_steps(est) -> int:
    """Steps taken by the killed-walk ensemble, read from its estimate: the
    censored-exponential mean is total observed time over hits, so time =
    mean * hits; with no hits every walker ran to max(ts)."""
    hits = est.n_walks * (1.0 - est.censored_fraction)
    if hits <= 0:
        return int(est.n_walks * int(max(est.ts)))
    return int(round(est.mean_hitting * hits))


# (module, qualified name, work counter or None). A work counter maps
# (bound arguments, result, value before the call) to an exact count.
TARGETS = [
    ("cli", "main", None),
    ("experiments", "sweep_vacant_structure", None),
    ("experiments", "size_relation_check", None),
    ("experiments", "hitting_and_vacancy_report", None),
    ("experiments", "_sweep_trial", None),
    ("experiments", "_size_trial", None),
    ("engine", "run_trials", lambda a, r, pre: a["n_trials"]),
    ("engine", "aggregate", None),
    ("critical", "solve_u_star", None),
    ("gw", "capacity_samples", lambda a, r, pre: a["n_samples"] * a["radius"]),
    ("gw", "CapacitySamples.functional", None),
    ("random_graph", "sample_er", lambda a, r, pre: r.m),
    ("random_graph", "components", None),
    ("random_graph", "graph_from_edges", None),
    ("walk", "run_walk_first_visits", lambda a, r, pre: a["t"]),
    ("walk", "run_walk_vacant", lambda a, r, pre: a["t"]),
    ("walk", "vacant_components", None),
    ("walk", "estimate_hitting_tail", lambda a, r, pre: _walker_steps(r)),
    ("walk", "escape_probability", None),
    ("exploration", "new_exploration", None),
    ("exploration", "run_to", lambda a, r, pre: r.step - pre),
]

# Value captured just before a call, handed to the work counter.
_PRE = {"exploration.run_to": lambda a: a["state"].step}


class Tracer:
    """Span recorder. ``install`` patches the loaded ``vacantlab`` modules;
    the patches live for the rest of the process, which is one traced run."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, work):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        pre_fn = _PRE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = _bound(fn, args, kwargs) if work is not None else None
            pre = pre_fn(bound) if pre_fn is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, run_id, None]
            if work is not None:
                spans[idx][5] = work(bound, result, pre)
            return result

        return wrapper

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "vacantlab" or k.startswith("vacantlab.")}
        for mod_name, qualname, work in TARGETS:
            owner = mods[f"vacantlab.{mod_name}"]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapper = self._wrap(f"{mod_name}.{qualname}", orig, work)
            setattr(owner, attr, wrapper)
            if cls_path:
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    def dump(self) -> list:
        return [s for s in self.spans if s is not None]


def _durations(spans: list) -> tuple[list, list]:
    """Duration and self time (duration less that of direct children) of
    every span."""
    dur = [s[2] - s[1] for s in spans]
    self_t = list(dur)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            self_t[s[3]] -= d
    return dur, self_t


# metric -> (span name, aggregate over that name's spans): "self_s" and
# "total_s" sum self time and duration, "calls" counts spans, "work" sums
# the work counter and "rate" is work per second of self time.
_FROM_SPANS = {
    "cli.main.total_s": ("cli.main", "total_s"),
    "experiments.sweep_vacant_structure.self_s": ("experiments.sweep_vacant_structure", "self_s"),
    "experiments.size_relation_check.self_s": ("experiments.size_relation_check", "self_s"),
    "experiments.hitting_and_vacancy_report.self_s": ("experiments.hitting_and_vacancy_report", "self_s"),
    "experiments._sweep_trial.self_s": ("experiments._sweep_trial", "self_s"),
    "experiments._size_trial.self_s": ("experiments._size_trial", "self_s"),
    "engine.run_trials.self_s": ("engine.run_trials", "self_s"),
    "engine.run_trials.trials": ("engine.run_trials", "work"),
    "engine.aggregate.self_s": ("engine.aggregate", "self_s"),
    "engine.aggregate.calls": ("engine.aggregate", "calls"),
    "critical.solve_u_star.total_s": ("critical.solve_u_star", "total_s"),
    "gw.capacity_samples.self_s": ("gw.capacity_samples", "self_s"),
    "gw.capacity_samples.level_draws": ("gw.capacity_samples", "work"),
    "gw.capacity_samples.level_draws_per_s": ("gw.capacity_samples", "rate"),
    "gw.CapacitySamples.functional.calls": ("gw.CapacitySamples.functional", "calls"),
    "gw.CapacitySamples.functional.total_s": ("gw.CapacitySamples.functional", "total_s"),
    "random_graph.sample_er.self_s": ("random_graph.sample_er", "self_s"),
    "random_graph.sample_er.edges": ("random_graph.sample_er", "work"),
    "random_graph.sample_er.edges_per_s": ("random_graph.sample_er", "rate"),
    "random_graph.components.self_s": ("random_graph.components", "self_s"),
    "random_graph.components.calls": ("random_graph.components", "calls"),
    "random_graph.graph_from_edges.self_s": ("random_graph.graph_from_edges", "self_s"),
    "random_graph.graph_from_edges.calls": ("random_graph.graph_from_edges", "calls"),
    "walk.run_walk_first_visits.steps": ("walk.run_walk_first_visits", "work"),
    "walk.run_walk_first_visits.steps_per_s": ("walk.run_walk_first_visits", "rate"),
    "walk.run_walk_vacant.steps": ("walk.run_walk_vacant", "work"),
    "walk.run_walk_vacant.steps_per_s": ("walk.run_walk_vacant", "rate"),
    "walk.vacant_components.total_s": ("walk.vacant_components", "total_s"),
    "walk.vacant_components.calls": ("walk.vacant_components", "calls"),
    "walk.estimate_hitting_tail.self_s": ("walk.estimate_hitting_tail", "self_s"),
    "walk.estimate_hitting_tail.walker_steps": ("walk.estimate_hitting_tail", "work"),
    "walk.estimate_hitting_tail.walker_steps_per_s": ("walk.estimate_hitting_tail", "rate"),
    "walk.escape_probability.self_s": ("walk.escape_probability", "self_s"),
    "exploration.new_exploration.self_s": ("exploration.new_exploration", "self_s"),
    "exploration.run_to.self_s": ("exploration.run_to", "self_s"),
    "exploration.run_to.steps": ("exploration.run_to", "work"),
    "exploration.run_to.steps_per_s": ("exploration.run_to", "rate"),
}


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced run, from its spans. A layer the
    command does not reach reports 0."""
    dur, self_t = _durations(spans)
    agg: dict[str, dict] = {}
    for s, d, st in zip(spans, dur, self_t):
        a = agg.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        a["calls"] += 1
        a["self_s"] += st
        a["total_s"] += d
        a["work"] += s[5] or 0
    for a in agg.values():
        a["rate"] = a["work"] / a["self_s"] if a["self_s"] > 0 else 0.0
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "rate": 0.0}
    m = {k: agg.get(name, zero)[key] for k, (name, key) in _FROM_SPANS.items()}

    # functional evaluations made inside the u-star solve
    evals = 0
    for s in spans:
        p = s[3] if s[0] == "gw.CapacitySamples.functional" else -1
        while p >= 0 and spans[p][0] != "critical.solve_u_star":
            p = spans[p][3]
        evals += p >= 0
    m["critical.solve_u_star.functional_evals"] = evals
    vc = agg.get("walk.vacant_components", zero)
    m["walk.vacant_components.per_call_ms"] = 1e3 * vc["total_s"] / vc["calls"] if vc["calls"] else 0.0
    # time inside cli.main that no module span below it accounts for
    m["trace.unattributed_s"] = m["cli.main.total_s"] - sum(
        a["self_s"] for name, a in agg.items() if name != "cli.main")
    return m


# Metrics that are exact counts: they must repeat exactly at one seed.
COUNTS = [
    "engine.run_trials.trials",
    "engine.aggregate.calls",
    "critical.solve_u_star.functional_evals",
    "gw.capacity_samples.level_draws",
    "gw.CapacitySamples.functional.calls",
    "random_graph.sample_er.edges",
    "random_graph.components.calls",
    "random_graph.graph_from_edges.calls",
    "walk.run_walk_first_visits.steps",
    "walk.run_walk_vacant.steps",
    "walk.vacant_components.calls",
    "walk.estimate_hitting_tail.walker_steps",
    "exploration.run_to.steps",
]


def self_shares(spans: list) -> dict:
    """Share of cli.main's time spent in each span name's own code."""
    dur, self_t = _durations(spans)
    total = sum(d for s, d in zip(spans, dur) if s[0] == "cli.main")
    m: dict[str, float] = {}
    for s, t in zip(spans, self_t):
        m[s[0]] = m.get(s[0], 0.0) + t / total
    return dict(sorted(m.items(), key=lambda kv: -kv[1]))
