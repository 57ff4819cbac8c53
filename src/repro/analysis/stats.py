"""Statistical rigour for the accuracy experiments.

The paper reports single error rates; with a finite test set those carry
sampling uncertainty, and "before vs after quantization" comparisons on
the *same* test samples are paired.  This module provides the two tools
the benchmarks use to qualify their claims:

* Wilson score confidence intervals for an error rate (better behaved
  than the normal approximation for the small error counts involved);
* McNemar's exact test for paired classifier comparisons — is the
  accuracy difference between the float and the quantized network larger
  than the disagreement noise supports?
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError

__all__ = ["wilson_interval", "McNemarResult", "mcnemar_test", "paired_disagreement"]


def wilson_interval(
    errors: int, total: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for an error rate.

    Parameters
    ----------
    errors:
        Number of misclassified samples.
    total:
        Test-set size.
    confidence:
        Two-sided confidence level.
    """
    if total <= 0:
        raise ConfigurationError("total must be positive")
    if not 0 <= errors <= total:
        raise ConfigurationError(
            f"errors ({errors}) must lie in [0, {total}]"
        )
    if not 0 < confidence < 1:
        raise ConfigurationError("confidence must be in (0, 1)")

    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    p_hat = errors / total
    denom = 1 + z**2 / total
    centre = (p_hat + z**2 / (2 * total)) / denom
    margin = (
        z
        * np.sqrt(p_hat * (1 - p_hat) / total + z**2 / (4 * total**2))
        / denom
    )
    return (max(0.0, centre - margin), min(1.0, centre + margin))


@dataclass(frozen=True)
class McNemarResult:
    """Outcome of McNemar's exact test."""

    #: Samples only classifier A got right.
    only_a_correct: int
    #: Samples only classifier B got right.
    only_b_correct: int
    p_value: float

    @property
    def significant(self) -> bool:
        """At the conventional 5% level."""
        return self.p_value < 0.05


def paired_disagreement(
    predictions_a: np.ndarray,
    predictions_b: np.ndarray,
    labels: np.ndarray,
) -> Tuple[int, int]:
    """Counts (b, c) of one-sided disagreements on the same samples."""
    predictions_a = np.asarray(predictions_a)
    predictions_b = np.asarray(predictions_b)
    labels = np.asarray(labels)
    if not (predictions_a.shape == predictions_b.shape == labels.shape):
        raise ShapeError("prediction/label arrays must share one shape")
    a_correct = predictions_a == labels
    b_correct = predictions_b == labels
    only_a = int((a_correct & ~b_correct).sum())
    only_b = int((~a_correct & b_correct).sum())
    return only_a, only_b


def mcnemar_test(
    predictions_a: np.ndarray,
    predictions_b: np.ndarray,
    labels: np.ndarray,
) -> McNemarResult:
    """McNemar's exact (binomial) test on paired predictions.

    Under the null hypothesis that both classifiers have the same error
    rate, the one-sided disagreements split Binomial(n, 1/2).
    """
    only_a, only_b = paired_disagreement(
        predictions_a, predictions_b, labels
    )
    n = only_a + only_b
    if n == 0:
        p_value = 1.0
    else:
        # Exact Binomial(n, 1/2) lower tail in integer arithmetic.
        k = min(only_a, only_b)
        tail = sum(math.comb(n, i) for i in range(k + 1)) / 2**n
        p_value = min(1.0, 2 * tail)
    return McNemarResult(
        only_a_correct=only_a, only_b_correct=only_b, p_value=p_value
    )
