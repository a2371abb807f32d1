"""Statistical comparison of run sets.

The paper reports bare 10-run averages; a modern reproduction should say
whether differences are *significant*.  This module wraps the two
standard nonparametric tests for solver comparisons — Mann-Whitney U for
independent run sets, Wilcoxon signed-rank for per-seed pairs — plus
bootstrap confidence intervals for the mean excess, all via scipy.
``scipy.stats`` is imported by the two tests that use it, not by this
module: the package init imports this module, and a process that only
solves (a service job worker) should not pay for the import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Comparison", "compare_runs", "paired_compare", "bootstrap_mean_ci"]


@dataclass(frozen=True)
class Comparison:
    """Outcome of a two-sample comparison (lower lengths are better)."""

    mean_a: float
    mean_b: float
    p_value: float
    #: Negative = A better, positive = B better (difference of means).
    effect: float
    test: str

    @property
    def significant(self) -> bool:
        """Conventional alpha = 0.05."""
        return self.p_value < 0.05

    def summary(self, name_a: str = "A", name_b: str = "B") -> str:
        winner = name_a if self.effect < 0 else name_b
        sig = "significant" if self.significant else "not significant"
        return (
            f"{name_a} mean {self.mean_a:.1f} vs {name_b} mean "
            f"{self.mean_b:.1f}; {winner} ahead by {abs(self.effect):.1f} "
            f"({self.test}, p={self.p_value:.3g}, {sig} at 0.05)"
        )


def compare_runs(lengths_a, lengths_b) -> Comparison:
    """Mann-Whitney U on two independent sets of final tour lengths."""
    a = np.asarray(list(lengths_a), dtype=float)
    b = np.asarray(list(lengths_b), dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("need at least two runs per side")
    if np.all(a == a[0]) and np.all(b == b[0]) and a[0] == b[0]:
        p = 1.0
    else:
        from scipy.stats import mannwhitneyu

        _, p = mannwhitneyu(a, b, alternative="two-sided")
    return Comparison(
        mean_a=float(a.mean()),
        mean_b=float(b.mean()),
        p_value=float(p),
        effect=float(a.mean() - b.mean()),
        test="Mann-Whitney U",
    )


def paired_compare(lengths_a, lengths_b) -> Comparison:
    """Wilcoxon signed-rank on per-seed pairs (same seeds, two solvers)."""
    a = np.asarray(list(lengths_a), dtype=float)
    b = np.asarray(list(lengths_b), dtype=float)
    if a.shape != b.shape or len(a) < 2:
        raise ValueError("need equal-length paired samples (>= 2)")
    diffs = a - b
    if np.all(diffs == 0):
        p = 1.0
    else:
        from scipy.stats import wilcoxon

        _, p = wilcoxon(a, b, zero_method="zsplit")
    return Comparison(
        mean_a=float(a.mean()),
        mean_b=float(b.mean()),
        p_value=float(p),
        effect=float(diffs.mean()),
        test="Wilcoxon signed-rank",
    )


def bootstrap_mean_ci(values, confidence: float = 0.95,
                      n_boot: int = 2000, rng=None) -> tuple:
    """Bootstrap confidence interval for the mean of a run statistic."""
    v = np.asarray(list(values), dtype=float)
    if len(v) < 2:
        raise ValueError("need at least two values")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    gen = np.random.default_rng(rng)
    means = np.array([
        gen.choice(v, size=len(v), replace=True).mean()
        for _ in range(n_boot)
    ])
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(means, alpha)),
        float(np.quantile(means, 1.0 - alpha)),
    )
