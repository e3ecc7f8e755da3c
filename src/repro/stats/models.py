"""Least-squares performance models over sample series.

The degradation detectors in :mod:`repro.check` need to summarize "how
does this metric behave across a run" as something comparable between
two commits.  Following Perun's postprocessing models, a series is
fitted against a small basis of shapes — constant, linear, logarithmic
and quadratic in the sample index — and the best fit (highest
coefficient of determination, simplest shape on ties) becomes the
series' model.  Two commits are then compared model-to-model: a change
of best shape, of fitted coefficients, or of the model's integral is
the statistically-summarized signal the detectors classify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import CheckError

__all__ = ["MODEL_KINDS", "ModelFit", "fit_model", "fit_best_model", "model_integral"]

#: Model shapes, simplest first — the tie-break order for equal fits.
MODEL_KINDS = ("constant", "linear", "logarithmic", "quadratic")


def _design(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "constant":
        return np.ones((x.size, 1))
    if kind == "linear":
        return np.column_stack([np.ones_like(x), x])
    if kind == "logarithmic":
        return np.column_stack([np.ones_like(x), np.log1p(x)])
    if kind == "quadratic":
        return np.column_stack([np.ones_like(x), x, x * x])
    raise CheckError(f"unknown model kind {kind!r} (known: {MODEL_KINDS})")


@dataclass(frozen=True)
class ModelFit:
    """One fitted model: ``y ~ shape(x)`` with goodness of fit."""

    kind: str
    coefficients: tuple[float, ...]
    r_squared: float
    x_range: tuple[float, float]

    def predict(self, x: np.ndarray | list[float]) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        design = _design(self.kind, x)
        return design @ np.asarray(self.coefficients, dtype=np.float64)


def fit_model(x: np.ndarray | list[float], y: np.ndarray | list[float], kind: str) -> ModelFit:
    """Least-squares fit of one model *kind* over ``(x, y)``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise CheckError(f"model fit needs equal-length vectors ({x.size} vs {y.size})")
    if x.size < 2:
        raise CheckError("model fit needs at least 2 points")
    design = _design(kind, x)
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    predicted = design @ coeffs
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    # A flat series is perfectly explained by any shape that can be flat.
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return ModelFit(
        kind=kind,
        coefficients=tuple(float(c) for c in coeffs),
        r_squared=r_squared,
        x_range=(float(np.min(x)), float(np.max(x))),
    )


def fit_best_model(
    x: np.ndarray | list[float],
    y: np.ndarray | list[float],
    kinds: tuple[str, ...] = MODEL_KINDS,
) -> ModelFit:
    """The best-fitting model over ``(x, y)``.

    "Best" is the highest coefficient of determination; a more complex
    shape must beat a simpler one by a margin (1e-3) to win, so noise
    does not promote every flat series to a quadratic.
    """
    if not kinds:
        raise CheckError("fit_best_model needs at least one model kind")
    best: ModelFit | None = None
    for kind in kinds:
        fit = fit_model(x, y, kind)
        if best is None or fit.r_squared > best.r_squared + 1e-3:
            best = fit
    assert best is not None
    return best


def model_integral(fit: ModelFit, points: int = 128) -> float:
    """Trapezoidal integral of the fitted curve over its x range.

    Normalized by the range width, so the integral of two series with
    different lengths stays comparable (it is the model's mean height).
    """
    lo, hi = fit.x_range
    if hi <= lo:
        return float(fit.predict([lo])[0])
    grid = np.linspace(lo, hi, points)
    return float(np.trapezoid(fit.predict(grid), grid) / (hi - lo))
