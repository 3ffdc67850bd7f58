"""Spans around tripletlab's public functions, installed from outside.

`patched` swaps wrappers in for a set of library functions: a function is
replaced under every name that binds it in a tripletlab module (so
`from .risk import exact_mean_loss` in optim is covered too), a method or
property on its class. The originals come back when the block ends, so
traced and untraced rounds can alternate in one process.

A span is (name, parent, start, end, count): the parent is the index of the
span open when the call began, and count is the work the call did (triplets
drawn or swept, Newton iterations, SGD steps), read from its arguments or
result. The self time of a span is its duration minus that of its children.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

from tripletlab import core, lab, optim, risk, stability, synth


def _n_triplets(X, Y) -> int:
    return X.shape[0] * (X.shape[0] - 1) * Y.shape[0]


# (span name, owner, attribute, count(args, kwargs, result) or None)
TARGETS = [
    ("synth.draw", synth.TripletSampler, "draw", lambda a, k, r: r[0].shape[0]),
    ("synth.draw_dataset", synth.TripletSampler, "draw_dataset", None),
    ("synth.positive_sample", synth.TripletSampler, "positive_sample", None),
    ("synth.negative_sample", synth.TripletSampler, "negative_sample", None),
    ("synth.gen_task", synth, "gen_task", None),
    ("synth.low_noise_task", synth, "low_noise_task", None),
    ("risk.population_risk", risk, "population_risk", None),
    ("risk.empirical_risk", risk, "empirical_risk", None),
    ("risk.exact_mean_loss", risk, "exact_mean_loss", lambda a, k, r: _n_triplets(a[1], a[2])),
    ("optim.rrm_train", optim, "rrm_train", lambda a, k, r: r[1]),
    ("optim.sgd_train", optim, "sgd_train", lambda a, k, r: r[1].T),
    (
        "stability.probe_max_loss_diff",
        stability,
        "probe_max_loss_diff",
        lambda a, k, r: len(a[3][0]) + a[2].n_triplets,
    ),
    ("stability.estimate_uniform_stability", stability, "estimate_uniform_stability", None),
    ("core.positive_features", core.TripletDataset, "positive_features", None),
    ("core.negative_features", core.TripletDataset, "negative_features", None),
    ("core.replace_samples", core, "replace_samples", None),
    ("lab.run_optimistic_experiment", lab, "run_optimistic_experiment", None),
    ("lab.run_rate_sweep", lab, "run_rate_sweep", None),
]


@contextmanager
def patched(wrappers):
    """Install `wrappers[(owner, attr)] = make(fn) -> fn` for the block's duration."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tripletlab"]
    undo = []
    try:
        for (owner, attr), make in wrappers.items():
            original = owner.__dict__[attr]
            if isinstance(original, property):
                replacement = property(make(original.fget))
            else:
                replacement = make(original)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, replacement)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, replacement)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    count: int = 0


class Tracer:
    """Collects the spans of one traced round, in call order."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None, time.perf_counter())
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.count = int(count(args, kwargs, result))
            return result

        return traced

    def installed(self):
        return patched(
            {
                (owner, attr): functools.partial(self.wrap, name, count=count)
                for name, owner, attr, count in TARGETS
            }
        )


@contextmanager
def recorded(targets, calls):
    """Append (args, kwargs, result) of each call to the named functions to `calls`."""

    def make(fn):
        @functools.wraps(fn)
        def recording(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        return recording

    with patched({target: make for target in targets}):
        yield


def layer_metrics(spans) -> dict:
    """Per-layer totals of one traced round (times in seconds)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    total, self_time, calls, count = {}, {}, {}, {}
    for idx, s in enumerate(spans):
        duration = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + duration
        self_time[s.name] = self_time.get(s.name, 0.0) + duration - child[idx]
        calls[s.name] = calls.get(s.name, 0) + 1
        count[s.name] = count.get(s.name, 0) + s.count

    def layer_self(prefix):
        return sum(v for k, v in self_time.items() if k.startswith(prefix + "."))

    line_search = sum(
        1
        for s in spans
        if s.name == "risk.exact_mean_loss"
        and s.parent is not None
        and spans[s.parent].name == "optim.rrm_train"
    )
    exact_s = total.get("risk.exact_mean_loss", 0.0)
    exact_triplets = count.get("risk.exact_mean_loss", 0)
    newton_iters = count.get("optim.rrm_train", 0)
    sgd_s = total.get("optim.sgd_train", 0.0)
    sgd_steps = count.get("optim.sgd_train", 0)
    return {
        "synth.draw_s": layer_self("synth"),
        "synth.triplets_drawn": count.get("synth.draw", 0),
        "risk.population_self_s": self_time.get("risk.population_risk", 0.0),
        "risk.exact_s": exact_s,
        "risk.exact_calls": calls.get("risk.exact_mean_loss", 0),
        "risk.exact_triplets": exact_triplets,
        "risk.exact_ns_per_triplet": 1e9 * exact_s / exact_triplets if exact_triplets else 0.0,
        "optim.rrm_s": total.get("optim.rrm_train", 0.0),
        "optim.rrm_calls": calls.get("optim.rrm_train", 0),
        "optim.newton_iters": newton_iters,
        "optim.rrm_self_s": self_time.get("optim.rrm_train", 0.0),
        "optim.line_search_evals": line_search,
        "optim.line_search_evals_per_iter": line_search / newton_iters if newton_iters else 0.0,
        "optim.sgd_s": sgd_s,
        "optim.sgd_steps": sgd_steps,
        "optim.sgd_us_per_step": 1e6 * sgd_s / sgd_steps if sgd_steps else 0.0,
        "stability.probe_s": total.get("stability.probe_max_loss_diff", 0.0),
        "stability.probe_calls": calls.get("stability.probe_max_loss_diff", 0),
        "stability.probe_triplets": count.get("stability.probe_max_loss_diff", 0),
        "stability.estimator_self_s": self_time.get("stability.estimate_uniform_stability", 0.0),
        "core.features_s": total.get("core.positive_features", 0.0)
        + total.get("core.negative_features", 0.0),
        "core.features_calls": calls.get("core.positive_features", 0)
        + calls.get("core.negative_features", 0),
        "core.replace_samples_s": total.get("core.replace_samples", 0.0),
        "lab.self_s": layer_self("lab"),
    }
