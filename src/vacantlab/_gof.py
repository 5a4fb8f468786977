"""Private chi-square goodness-of-fit helpers shared by the law-checking
code paths (vacant-graph degree test, tree sampler validation)."""

from __future__ import annotations

import numpy as np

MIN_EXPECTED = 5.0


def _merge_small_bins(expected: np.ndarray, *counts: np.ndarray):
    """Merge adjacent bins from the right until every expected count is at
    least ``MIN_EXPECTED``; returns (expected, merged counts...)."""
    exp = list(expected.astype(float))
    obs = [list(c.astype(float)) for c in counts]
    i = len(exp) - 1
    while i > 0:
        if exp[i] < MIN_EXPECTED:
            exp[i - 1] += exp.pop(i)
            for o in obs:
                o[i - 1] += o.pop(i)
        i -= 1
    # leftmost bin may still be small: merge into its neighbor
    while len(exp) > 1 and exp[0] < MIN_EXPECTED:
        exp[1] += exp.pop(0)
        for o in obs:
            o[1] += o.pop(0)
    return np.array(exp), *[np.array(o) for o in obs]


def chisq_pvalue_counts_vs_probs(counts: np.ndarray, probs: np.ndarray) -> float:
    """Goodness-of-fit p-value of observed histogram ``counts`` against the
    model cell probabilities ``probs`` (any residual mass is appended as an
    extra cell)."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    n = counts.sum()
    residual = max(0.0, 1.0 - probs.sum())
    expected = np.append(probs * n, residual * n)
    counts = np.append(counts, 0.0)
    expected, counts = _merge_small_bins(expected, counts)
    if len(expected) < 2:
        return 1.0
    stat = float(np.sum((counts - expected) ** 2 / expected))
    dof = len(expected) - 1
    from scipy.stats import chi2

    return float(chi2.sf(stat, dof))


def chisq_pvalue_two_sample(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """Homogeneity p-value for two histograms over the same cells."""
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("histograms must share their binning")
    na, nb = a.sum(), b.sum()
    pooled = (a + b) / (na + nb)
    exp_a = pooled * na
    exp_a, a, b = _merge_small_bins(exp_a, a, b)
    pooled = (a + b) / (na + nb)
    exp_a = pooled * na
    exp_b = pooled * nb
    stat = float(np.sum((a - exp_a) ** 2 / exp_a) + np.sum((b - exp_b) ** 2 / exp_b))
    dof = len(a) - 1
    if dof < 1:
        return 1.0
    from scipy.stats import chi2

    return float(chi2.sf(stat, dof))


def histogram_pair(samples_a: np.ndarray, samples_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aligned integer-valued histograms of two samples."""
    hi = int(max(samples_a.max(initial=0), samples_b.max(initial=0)))
    ca = np.bincount(samples_a, minlength=hi + 1)
    cb = np.bincount(samples_b, minlength=hi + 1)
    return ca, cb
