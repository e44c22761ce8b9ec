"""Curve fitting for the entropy/hit-ratio relation (Figure 2).

The paper draws a best-fit line through the (entropy, hit ratio) scatter
using "nonlinear least squares fitting using the Marquardt-Levenberg
Algorithm" and reads off a slope of roughly -5% hit ratio per bit of
entropy.  We use SciPy's Levenberg-Marquardt implementation
(``scipy.optimize.least_squares`` with ``method='lm'``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["LineFit", "fit_line_lm", "pearson_r"]


@dataclass(frozen=True)
class LineFit:
    """A fitted line ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    residual_norm: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept

    @property
    def percent_per_bit(self) -> float:
        """Hit-ratio change per entropy bit, in percentage points.

        The paper's headline is "for each bit of entropy a 5% decrease
        in the hit-ratio is observed", i.e. this is about -5.
        """
        return self.slope * 100.0


def fit_line_lm(xs: Sequence[float], ys: Sequence[float]) -> LineFit:
    """Levenberg-Marquardt least-squares line fit.

    A line is linear in its parameters so LM converges to the ordinary
    least-squares answer; we use LM anyway to mirror the paper's method
    (and to keep the door open for nonlinear models).
    """
    # Imported here: scipy.optimize costs most of the CLI's start-up,
    # and only Figure 2 fits a line.
    from scipy.optimize import least_squares

    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} xs vs {y.size} ys")
    if x.size < 2:
        raise ValueError("need at least two points to fit a line")

    def residuals(params: np.ndarray) -> np.ndarray:
        slope, intercept = params
        return slope * x + intercept - y

    start = np.array([0.0, float(y.mean())])
    solution = least_squares(residuals, start, method="lm")
    slope, intercept = solution.x
    return LineFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_norm=float(np.linalg.norm(solution.fun)),
    )


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (for reporting fit quality)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    sx = x.std()
    sy = y.std()
    if sx == 0 or sy == 0:
        return 0.0
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))
