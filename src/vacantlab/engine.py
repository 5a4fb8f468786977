"""Deterministic randomness, trial orchestration, and the small set of
statistical aggregations shared by the simulation modules.

Random streams are immutable (root_seed, stream_id) values. A stream is
turned into a private counter-based generator (Philox, keyed through
numpy's SeedSequence entropy mixing) at the point of use, so independent
trials never share generator state and any trial can be replayed from its
stream alone.

Trials run in a process pool when more than one worker is allowed; the
caller may hand ``run_trials`` one piece of its own serial work, which runs
in the calling process while the workers run the trials.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field
from functools import partial

import numpy as np

THREADS_ENV_VAR = "VACANTLAB_THREADS"

_UINT64_MASK = (1 << 64) - 1


class TrialError(RuntimeError):
    """A trial function raised; carries the index of the failing trial."""

    def __init__(self, trial_index: int, message: str):
        super().__init__(f"trial {trial_index} failed: {message}")
        self.trial_index = trial_index


@dataclass(frozen=True)
class RngStream:
    """Immutable seed for one independent random stream.

    Distinct (root_seed, stream_id, path) triples map to distinct Philox
    keys via SeedSequence, whose entropy-mixing function is fixed by numpy
    across releases; equal triples always reproduce the same sequence.
    ``path`` holds spawn tags of derived sub-streams.
    """

    root_seed: int
    stream_id: int
    path: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for name in ("root_seed", "stream_id"):
            v = getattr(self, name)
            if not (0 <= v <= _UINT64_MASK):
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v}")

    def _seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=self.root_seed, spawn_key=(self.stream_id, *self.path)
        )

    def generator(self) -> np.random.Generator:
        """Fresh private generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(self._seed_sequence()))

    def substream(self, *tags: int) -> "RngStream":
        """Derived stream for an internal purpose; independent of the parent
        and of any sibling with a different tag sequence."""
        return RngStream(self.root_seed, self.stream_id, self.path + tags)

    def entropy64(self) -> int:
        """64-bit digest of this stream's identity (used to key trial families)."""
        return int(self._seed_sequence().generate_state(1, np.uint64)[0])


def derive_stream(root_seed: int, stream_id: int) -> RngStream:
    """Stream for (root_seed, stream_id); same inputs always give the same
    sequence, different inputs give statistically independent sequences."""
    return RngStream(int(root_seed), int(stream_id))


def as_generator(rng: "RngStream | np.random.Generator") -> np.random.Generator:
    """Accept either a stream value or a live generator.

    A stream is instantiated fresh (one-shot operations); a generator is
    returned as-is so stepwise callers keep consuming the same sequence.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


@dataclass(frozen=True)
class EstimateCI:
    """Monte Carlo estimate with a normal-approximation 95% interval."""

    mean: float
    std_error: float
    n_samples: int
    ci95_low: float
    ci95_high: float


def aggregate(samples) -> EstimateCI:
    """Mean, standard error (sample sd / sqrt(n)) and 95% normal CI.

    Mean and variance are numpy's float64 reductions (pairwise summation),
    so the last bits may differ from an exactly rounded sum. A single
    sample reports std_error 0 and a degenerate interval rather than NaN.
    """
    xs = np.asarray(samples, dtype=np.float64).ravel()
    n = xs.size
    if n == 0:
        raise ValueError("no samples")
    mean = float(xs.mean())
    if n == 1:
        return EstimateCI(mean, 0.0, 1, mean, mean)
    var = float(xs.var(ddof=1))
    se = math.sqrt(var) / math.sqrt(n)
    return EstimateCI(mean, se, n, mean - 1.96 * se, mean + 1.96 * se)


def ks_uniform_pvalue(samples) -> float:
    """Kolmogorov-Smirnov p-value of the samples against Uniform[0,1],
    using the asymptotic Kolmogorov distribution. Sort-invariant."""
    xs = np.asarray(list(samples), dtype=float)
    if xs.size == 0:
        raise ValueError("no samples")
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise ValueError("samples must lie in [0, 1]")
    xs = np.sort(xs)
    n = xs.size
    grid = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(grid / n - xs)
    d_minus = np.max(xs - (grid - 1.0) / n)
    d = max(d_plus, d_minus)
    from scipy.special import kolmogorov

    return float(kolmogorov(math.sqrt(n) * d))


def worker_cap() -> int:
    """Most workers a run may use: VACANTLAB_THREADS when set, otherwise the
    CPUs this process may run on (all cores where affinity is unknown)."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env is None:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else (os.cpu_count() or 1)
    cap = int(env) if env.strip().isdecimal() else 0
    if cap < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, got {env!r}")
    return cap


def trial_stream(root: RngStream, trial_index: int) -> RngStream:
    """Stream of one trial in the family keyed by ``root``; stream_id is the
    trial index so trials are replayable individually."""
    return RngStream(root.entropy64(), int(trial_index))


def _run_one(trial_fn, stream):
    # an outcome, not a raise: with chunks of several trials a raised error
    # would surface at its chunk's first index
    try:
        return True, trial_fn(stream)
    except Exception as exc:  # noqa: BLE001 - re-raised with index by caller
        return False, exc


def run_trials(trial_fn, n_trials: int, *, root: RngStream, meanwhile=None):
    """Run ``trial_fn(stream)`` for trials 0..n_trials-1; callers bind a
    trial's parameters with ``functools.partial``. With more than one
    worker the trial must pickle (a module-level function, or a partial of
    one); otherwise its pickling error is raised before any worker starts.

    The output list is ordered by trial index and is identical for any
    degree of parallelism: trial i always receives the stream
    (entropy64(root), i) regardless of scheduling. On failure the error of
    the smallest failing trial index is raised as TrialError. Raises
    ValueError for n_trials < 1: an empty request has no result to report.

    ``meanwhile``, a zero-argument callable, is the caller's serial work
    that needs no trial result: with it the call returns ``(results,
    meanwhile())``. ``meanwhile`` always runs in the calling process. With
    a pool it runs once every trial is submitted, so the workers already
    run; serially it runs before the first trial. If it raises, trials not
    yet started are cancelled, the pool is shut down and the exception
    propagates unchanged.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    streams = [trial_stream(root, i) for i in range(n_trials)]
    workers = min(worker_cap(), n_trials)
    pool = None
    if workers > 1:
        # an unpicklable trial raises here, before any worker starts; inside
        # the pool, CPython 3.11 can hang the cancelling shutdown on its error
        pickle.dumps(trial_fn)
        # imported here: commands that never make a pool skip multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    run = partial(_run_one, trial_fn)
    try:
        # pool.map has submitted every trial when it returns; the builtin
        # map is lazy, so serially no trial runs before meanwhile
        outcomes = (map(run, streams) if pool is None
                    else pool.map(run, streams, chunksize=max(1, n_trials // (4 * workers))))
        side = None if meanwhile is None else meanwhile()
        results = []
        # in trial order, so the first failure has the smallest index
        for ok, payload in outcomes:
            if not ok:
                raise TrialError(len(results), repr(payload)) from payload
            results.append(payload)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return results if meanwhile is None else (results, side)
