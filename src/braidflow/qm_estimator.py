"""Monte Carlo averaging of braid invariants over sampled configurations.

The flow functional averages a braid invariant of the traced loop over
independent round-measure samples of the configuration tuple.  Its growth
rate in the flow duration is the homogenized functional; common random
numbers across durations make the per-sample slope an unbiased, low-variance
estimator of it.  Every sample owns an RNG stream keyed by (seed, index), so
results are reproducible regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .braid_algebra import QmOnBraids, evaluate_word, evaluate_words
from .braid_trace import (
    ConfigTuple,
    TraceRejection,
    base_tuple,
    build_loop,
    extract_braid,
    random_tuple,
    trace_words,
)
from .chart_geometry import MeasureConvention, PROBABILITY
from .flow_engine import FlowSpec, compose_specs

DEFAULT_REJECTION_CEILING = 0.05
_MAX_DRAWS_PER_SAMPLE = 10_000


class RejectionBudgetError(RuntimeError):
    """Too many degenerate samples for the configured ceiling."""


class EstimatorArgumentError(ValueError):
    """Sample count or durations refused before any sample is drawn."""


@dataclass(frozen=True)
class QMEstimate:
    value: float
    stderr: float
    samples: int
    rejected: int
    n_points: int
    duration: float
    invariant_kind: str
    seed: int


@dataclass(frozen=True)
class PhiBarEstimate:
    """Least-squares growth rate of the averaged invariant in the duration."""

    value: float
    stderr: float
    per_t: tuple[tuple[float, float, float], ...]  # (T, mean, stderr)
    samples: int
    rejected: int
    n_points: int
    invariant_kind: str
    seed: int
    linearity_warning: bool


def integrand(spec: FlowSpec, x: ConfigTuple, qm: QmOnBraids,
              omega: complex | None = None,
              base: ConfigTuple | None = None) -> float:
    """Braid invariant of the loop traced by x under the flow."""
    if base is None:
        base = base_tuple(x.n)
    loop = build_loop(spec, x, base)
    word = extract_braid(loop, omega)
    return evaluate_word(word, qm)


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _measure_factor(convention: MeasureConvention, n_points: int) -> float:
    return float(convention.total_mass) ** n_points


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1)) / math.sqrt(len(values))


def _draw_values(specs, n_points, qm, samples, seed, base, omega, ceiling):
    """values[k, s] for each sample k and spec s; CRN across the specs.

    Each sample is traced once for all specs (see trace_words): they share
    the inbound path, and specs that differ only in duration share the flow.
    Their words then share one signature stream up to where they part.
    """
    values = np.empty((samples, len(specs)))
    rejected = 0
    for k in range(samples):
        rng = _sample_rng(seed, k)
        for _attempt in range(_MAX_DRAWS_PER_SAMPLE):
            try:
                x = random_tuple(rng, n_points)
                words = trace_words(specs, x, base, omega)
                row = evaluate_words(words, qm)
            except TraceRejection:
                rejected += 1
                continue
            values[k, :] = row
            break
        else:
            raise RejectionBudgetError(
                f"sample {k} exhausted {_MAX_DRAWS_PER_SAMPLE} draws")
    if rejected > ceiling * samples:
        raise RejectionBudgetError(
            f"{rejected} rejections over {samples} samples exceeds the "
            f"{ceiling:.0%} ceiling")
    return values, rejected


def phi_estimate(spec: FlowSpec, n_points: int, qm: QmOnBraids, samples: int,
                 seed: int, base_eps: float = 0.1,
                 convention: MeasureConvention = PROBABILITY,
                 omega: complex | None = None,
                 rejection_ceiling: float = DEFAULT_REJECTION_CEILING) -> QMEstimate:
    """Mean of the braid invariant over i.i.d. configuration samples."""
    if samples < 2:
        raise EstimatorArgumentError("need at least 2 samples")
    base = base_tuple(n_points, base_eps)
    values, rejected = _draw_values(
        [spec], n_points, qm, samples, seed, base, omega, rejection_ceiling)
    factor = _measure_factor(convention, n_points)
    mean, err = _mean_stderr(values[:, 0])
    return QMEstimate(mean * factor, err * factor, samples, rejected,
                      n_points, spec.duration, qm.kind, seed)


def phi_bar_estimate(spec: FlowSpec, t_list, n_points: int, qm: QmOnBraids,
                     samples: int, seed: int, base_eps: float = 0.1,
                     convention: MeasureConvention = PROBABILITY,
                     omega: complex | None = None,
                     rejection_ceiling: float = DEFAULT_REJECTION_CEILING,
                     ) -> PhiBarEstimate:
    """Growth rate of the flow functional with the duration.

    The same sampled tuples are reused for every duration, and the estimator
    is the average of per-sample least-squares slopes, whose spread gives the
    standard error directly (the per-duration errors are correlated on
    purpose, which is what makes the slope tight).
    """
    t_list = [float(t) for t in t_list]
    if len(t_list) < 3 or any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise EstimatorArgumentError(
            "need at least 3 strictly increasing durations")
    if not all(0.0 < t < math.inf for t in t_list):
        raise EstimatorArgumentError("durations must be positive and finite")
    if samples < 2:
        raise EstimatorArgumentError("need at least 2 samples")
    base = base_tuple(n_points, base_eps)
    values, rejected = _draw_values(
        [FlowSpec(spec.components, t) for t in t_list], n_points, qm,
        samples, seed, base, omega, rejection_ceiling)
    factor = _measure_factor(convention, n_points)
    ts = np.array(t_list)
    centered = ts - ts.mean()
    slopes = values @ centered / float(centered @ centered)
    slope, slope_err = _mean_stderr(slopes)
    per_t = []
    for idx, t in enumerate(t_list):
        m, e = _mean_stderr(values[:, idx])
        per_t.append((t, m * factor, e * factor))
    # flag if the per-duration means wander off the fitted line
    means = np.array([row[1] for row in per_t])
    errs = np.array([row[2] for row in per_t])
    intercept = float(means.mean()) - slope * factor * float(ts.mean())
    resid = means - (intercept + slope * factor * ts)
    warning = bool(np.any(np.abs(resid) > 3.0 * np.maximum(errs, 1e-15)))
    return PhiBarEstimate(slope * factor, slope_err * factor, tuple(per_t),
                          samples, rejected, n_points, qm.kind, seed, warning)


def qm_property_monitor(spec_f: FlowSpec, spec_g: FlowSpec, n_points: int,
                        qm: QmOnBraids, samples: int, seed: int,
                        base_eps: float = 0.1,
                        convention: MeasureConvention = PROBABILITY,
                        omega: complex | None = None,
                        rejection_ceiling: float = DEFAULT_REJECTION_CEILING,
                        ) -> QMEstimate:
    """|Phi(fg) - Phi(f) - Phi(g)| with the same samples for all three terms."""
    if samples < 2:
        raise EstimatorArgumentError("need at least 2 samples")
    base = base_tuple(n_points, base_eps)
    composite = compose_specs(spec_f, spec_g)
    values, rejected = _draw_values(
        [composite, spec_f, spec_g], n_points, qm, samples, seed, base, omega,
        rejection_ceiling)
    diffs = values[:, 0] - values[:, 1] - values[:, 2]
    factor = _measure_factor(convention, n_points)
    mean, err = _mean_stderr(diffs)
    return QMEstimate(abs(mean) * factor, err * factor, samples, rejected,
                      n_points, composite.duration, f"defect:{qm.kind}", seed)
