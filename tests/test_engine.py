import math
import multiprocessing
import os
import pickle
import time
from functools import partial

import numpy as np
import pytest

from vacantlab import engine
from vacantlab.engine import (
    EstimateCI,
    TrialError,
    aggregate,
    derive_stream,
    ks_uniform_pvalue,
    run_trials,
)


class TestStreams:
    def test_same_stream_reproduces(self):
        a = derive_stream(1, 0).generator().random(1000)
        b = derive_stream(1, 0).generator().random(1000)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = derive_stream(1, 0).generator().random(1000)
        b = derive_stream(1, 1).generator().random(1000)
        c = derive_stream(2, 0).generator().random(1000)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_pooled_coin_flips_unbiased(self):
        # law of large numbers across a family of streams
        total = 0
        flips_per_stream = 1000
        for sid in range(1000):
            gen = derive_stream(1, sid).generator()
            total += int((gen.random(flips_per_stream) < 0.5).sum())
        frac = total / (1000 * flips_per_stream)
        assert abs(frac - 0.5) <= 0.01

    def test_cross_stream_correlation_small(self):
        base = derive_stream(7, 0).generator().random(20000) - 0.5
        for sid in (1, 2, 3):
            other = derive_stream(7, sid).generator().random(20000) - 0.5
            corr = float(np.dot(base, other) / (np.linalg.norm(base) * np.linalg.norm(other)))
            assert abs(corr) < 0.05

    def test_substream_independent(self):
        s = derive_stream(3, 4)
        a = s.generator().random(100)
        b = s.substream(0).generator().random(100)
        c = s.substream(1).generator().random(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(b, c)

    def test_seed_range_validation(self):
        with pytest.raises(ValueError):
            derive_stream(-1, 0)
        with pytest.raises(ValueError):
            derive_stream(0, 1 << 64)


def _identity_trial(stream):
    return stream.stream_id


def _sum_trial(size, stream):
    return float(stream.generator().random(size).sum())


def _failing_trial(stream):
    if stream.stream_id in (3, 5):
        raise RuntimeError(f"boom {stream.stream_id}")
    return stream.stream_id


class TestRunTrials:
    def test_zero_trials(self):
        # an empty request has no result to report
        for n_trials in (0, -1):
            with pytest.raises(ValueError, match="n_trials must be positive"):
                run_trials(_identity_trial, n_trials, root=derive_stream(1, 0))

    def test_identity_returns_indices(self):
        out = run_trials(_identity_trial, 8, root=derive_stream(1, 0))
        assert out == list(range(8))

    def test_worker_count_invariance(self, monkeypatch):
        root = derive_stream(11, 2)
        monkeypatch.setenv(engine.THREADS_ENV_VAR, "1")
        serial = run_trials(partial(_sum_trial, 100), 6, root=root)
        monkeypatch.setenv(engine.THREADS_ENV_VAR, "4")
        parallel = run_trials(partial(_sum_trial, 100), 6, root=root)
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_first_error_index_attached(self, monkeypatch, threads):
        # 16 trials on two workers go in chunks of two, so trial 3 shares a
        # chunk with trial 2 and its error must still name trial 3
        monkeypatch.setenv(engine.THREADS_ENV_VAR, threads)
        with pytest.raises(TrialError) as err:
            run_trials(_failing_trial, 16, root=derive_stream(1, 0))
        assert err.value.trial_index == 3
        assert str(err.value) == "trial 3 failed: RuntimeError('boom 3')"
        assert multiprocessing.active_children() == []

    def test_unpicklable_trial_raises_with_a_pool(self, monkeypatch):
        # no serial fallback: with a pool the trial must pickle, and its
        # pickling error comes before any worker starts
        monkeypatch.setenv(engine.THREADS_ENV_VAR, "2")
        trial = lambda stream: stream.stream_id  # noqa: E731 - a local lambda does not pickle
        with pytest.raises(Exception) as pickling:
            pickle.dumps(trial)
        with pytest.raises(type(pickling.value), match="pickle"):
            run_trials(trial, 4, root=derive_stream(1, 0))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_threads_env_validation(self, monkeypatch, value):
        monkeypatch.setenv(engine.THREADS_ENV_VAR, value)
        with pytest.raises(ValueError, match=f"VACANTLAB_THREADS must be a positive integer, got '{value}'"):
            engine.worker_cap()

    def test_cap_counts_the_cpus_this_process_may_use(self, monkeypatch):
        # under taskset or a cpuset the affinity mask, not the machine's
        # core count, bounds the workers
        monkeypatch.delenv(engine.THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
        assert engine.worker_cap() == 2
        # a platform without affinity masks falls back to the core count
        monkeypatch.delattr(os, "sched_getaffinity")
        assert engine.worker_cap() == 64


def _marking_trial(directory, stream):
    # leaves a trace of every trial that started, then takes long enough
    # that a cancellation reaches the trials still queued
    (directory / str(stream.stream_id)).touch()
    time.sleep(0.5)
    return stream.stream_id


class _MeanwhileFailed(Exception):
    pass


class TestMeanwhile:
    """``run_trials(..., meanwhile=f)`` runs f in the calling process while
    the pool's workers run the trials, and returns (results, f())."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_runs_once_in_calling_process(self, monkeypatch, threads):
        monkeypatch.setenv(engine.THREADS_ENV_VAR, threads)
        calls = []

        def meanwhile():
            calls.append((os.getpid(), len(multiprocessing.active_children())))
            return "value"

        out, value = run_trials(_identity_trial, 4, root=derive_stream(1, 0), meanwhile=meanwhile)
        assert out == list(range(4))
        assert value == "value"
        # one worker starts no process: the trials run after meanwhile, here
        assert calls == [(os.getpid(), 0 if threads == "1" else 2)]

    def test_results_independent_of_meanwhile_and_workers(self, monkeypatch):
        root = derive_stream(11, 3)
        trial = partial(_sum_trial, 100)
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv(engine.THREADS_ENV_VAR, threads)
            outs.append(run_trials(trial, 6, root=root))
            outs.append(run_trials(trial, 6, root=root, meanwhile=lambda: None)[0])
        assert len({pickle.dumps(out) for out in outs}) == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_error_propagates_and_no_worker_outlives_the_call(self, monkeypatch, tmp_path, threads):
        monkeypatch.setenv(engine.THREADS_ENV_VAR, threads)
        error = _MeanwhileFailed("no capacity")

        def meanwhile():
            raise error

        with pytest.raises(_MeanwhileFailed) as info:
            run_trials(partial(_marking_trial, tmp_path), 8, root=derive_stream(1, 0),
                       meanwhile=meanwhile)
        assert info.value is error
        assert multiprocessing.active_children() == []
        started = len(list(tmp_path.iterdir()))
        # serially no trial starts; two workers hold at most three queued
        # single-trial chunks when the rest are cancelled
        assert started == 0 if threads == "1" else started < 8

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_first_error_index_attached(self, monkeypatch, threads):
        monkeypatch.setenv(engine.THREADS_ENV_VAR, threads)
        with pytest.raises(TrialError) as err:
            run_trials(_failing_trial, 8, root=derive_stream(1, 0), meanwhile=lambda: None)
        assert err.value.trial_index == 3


class TestAggregate:
    def test_single_sample_degenerate(self):
        est = aggregate([5.0])
        assert est == EstimateCI(5.0, 0.0, 1, 5.0, 5.0)

    def test_hand_computed_se(self):
        est = aggregate([0, 0, 1, 1])
        assert est.mean == 0.5
        assert abs(est.std_error - 0.5773502691896258 / 2) < 1e-12
        assert abs(est.ci95_low - (0.5 - 1.96 * est.std_error)) < 1e-15

    def test_constant_samples(self):
        est = aggregate([3.25] * 17)
        assert est.mean == 3.25
        assert est.std_error == 0.0

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no samples"):
            aggregate([])

    def test_mean_matches_fsum(self):
        gen = derive_stream(5, 5).generator()
        for _ in range(20):
            xs = (gen.random(317) * 1e6 - 5e5).tolist()
            est = aggregate(xs)
            assert est.mean == pytest.approx(math.fsum(xs) / len(xs), abs=1e-9)


class TestKsUniform:
    def test_uniform_samples_usually_pass(self):
        passes = 0
        for rep in range(50):
            xs = derive_stream(9, rep).generator().random(1000)
            if ks_uniform_pvalue(xs) > 0.01:
                passes += 1
        assert passes >= 47

    def test_point_mass_rejected(self):
        assert ks_uniform_pvalue([0.5] * 100) < 1e-6

    def test_minimal_discrepancy_grid(self):
        n = 200
        xs = [(i - 0.5) / n for i in range(1, n + 1)]
        assert ks_uniform_pvalue(xs) > 0.999

    def test_sort_invariance(self):
        gen = derive_stream(4, 4).generator()
        xs = gen.random(500)
        shuffled = xs.copy()
        gen.shuffle(shuffled)
        assert ks_uniform_pvalue(xs) == ks_uniform_pvalue(shuffled)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ks_uniform_pvalue([0.1, 1.2])
        with pytest.raises(ValueError):
            ks_uniform_pvalue([])
