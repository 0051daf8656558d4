"""Statistics of order-book series: volume-change laws, return tails, velocity coupling.

All analyzers are pure functions of an immutable SeriesFrame (no hidden RNG;
the nonlinear fit's multi-start points come from a fixed internal seed).
Frames come either from simulation runs or from ingested snapshot series.
Volume changes are measured at a lag, Delta n(x, t) = n(x, t + dt) - n(x, t),
paired with the state at t, and never straddle a segment boundary (data gaps
split frames into segments); one helper, ``_lagged``, forms these pairs for
every statistic.  Correlations are column-wise Pearson coefficients, and
binned second moments need at least 30 samples per bin.

Binning follows the heavy-tail conventions: log-spaced bins for volumes and
|Delta n| (mirrored for negative changes), linear bins for positions and
velocities.  Every result carries its bin edges and sample counts so outputs
are self-describing when serialized.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .dynamics import _trend
from .errors import DataError, NumericError

__all__ = [
    "SeriesFrame",
    "FitReport",
    "Curve",
    "HistogramFamily",
    "ReturnDistribution",
    "conditional_delta_distribution",
    "mean_delta_vs_n",
    "spatial_correlation",
    "return_distribution",
    "velocity_variance_vs_n0",
    "velocity_volume_correlation",
    "rms_delta_vs_velocity",
    "fit_market_order_response",
    "hill_tail_index",
    "excess_kurtosis",
]

_FIT_SEED = 718293  # fixed so analyzers stay deterministic per input
_FIT_MAX_NFEV = 4000  # residual evaluations per start of the market-order fit
_MIN_BIN_SAMPLES = 1000  # conditioning bins of conditional_delta_distribution with fewer are dropped
_CONDITIONING_BINS = 6  # log volume bins conditional_delta_distribution conditions on
_DELTA_BINS = 40  # mirrored log bins of Delta n in conditional_delta_distribution
_MEAN_DELTA_BINS = 12  # log volume bins of mean_delta_vs_n
_RETURN_BINS = 60  # log bins of the return pdf
_TAIL_FRACTION = 0.01  # top fraction of |returns| the tail exponents are fitted over
_MIN_TAIL_SAMPLES = 100_000  # fewer nonzero returns than this: tail exponents omitted


@dataclass(frozen=True)
class SeriesFrame:
    """Time-aligned series of book state: volumes at chosen x bins, velocity, n0.

    segments are (start, stop) index ranges; lagged differences are taken only
    inside a segment.
    """

    times: np.ndarray
    velocities: np.ndarray
    n0s: np.ndarray
    x_bins: np.ndarray
    bid: np.ndarray
    ask: np.ndarray
    mo_flows: np.ndarray | None = None
    segments: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        T = len(self.times)
        for name in ("velocities", "n0s"):
            if len(getattr(self, name)) != T:
                raise ValueError(f"{name} not aligned with times ({len(getattr(self, name))} vs {T})")
        K = len(self.x_bins)
        for name in ("bid", "ask"):
            arr = getattr(self, name)
            if arr.shape != (T, K):
                raise ValueError(f"{name} must have shape (T, K) = ({T}, {K}), got {arr.shape}")
        if self.mo_flows is not None and self.mo_flows.shape != (T, 2):
            raise ValueError(f"mo_flows must have shape ({T}, 2)")
        if T and np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if not self.segments:
            object.__setattr__(self, "segments", ((0, T),))

    @property
    def dt_sample(self) -> float:
        return float(np.median(np.diff(self.times))) if len(self.times) > 1 else 0.0


@dataclass
class Curve:
    """A binned statistic: value per bin with centers, edges and counts."""

    bin_centers: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    bin_edges: np.ndarray
    meta: dict = dataclass_field(default_factory=dict)


@dataclass
class HistogramFamily:
    """Normalized histograms of Delta n conditioned on the current volume n."""

    delta_edges: np.ndarray
    delta_centers: np.ndarray
    n_edges: np.ndarray
    densities: np.ndarray  # shape (_CONDITIONING_BINS, _DELTA_BINS); rows integrate to 1
    counts: np.ndarray
    kept: np.ndarray  # bool per n bin; sparse bins are dropped but reported
    meta: dict = dataclass_field(default_factory=dict)


@dataclass
class ReturnDistribution:
    bin_centers: np.ndarray
    density: np.ndarray
    tail_exponent: float | None
    tail_exponent_ols: float | None
    normalization: float
    sample_count: int
    flags: list[str] = dataclass_field(default_factory=list)
    meta: dict = dataclass_field(default_factory=dict)


@dataclass
class FitReport:
    """Estimated parameters with standard errors and fit diagnostics."""

    parameters: dict
    residual_norm: float
    sample_count: int
    converged: bool
    diagnostics: dict = dataclass_field(default_factory=dict)


def _lag_steps(frame: SeriesFrame, dt: float) -> int:
    base = frame.dt_sample
    if base <= 0.0:
        raise DataError("frame has fewer than 2 samples")
    lag = int(round(dt / base))
    if lag < 1:
        raise ValueError(f"dt={dt} is below the frame sampling interval {base}")
    return lag


def _bin_column(frame: SeriesFrame, x: float) -> int:
    """The tracked bin nearest to x."""
    return int(np.argmin(np.abs(frame.x_bins - x)))


def _lagged(frame: SeriesFrame, series: np.ndarray, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """(series[t], series[t + lag] - series[t]) for every t whose lag stays in its segment.

    series is indexed by time along axis 0 (1-D, or (T, K) for the tracked bins).
    """
    parts = [(series[a : b - lag], series[a + lag : b] - series[a : b - lag])
             for a, b in frame.segments if b - a > lag]
    if not parts:
        raise DataError("no segment is longer than the requested lag")
    if len(parts) == 1:  # no copy of ``now`` (callers only read it) unless it is strided
        return np.ascontiguousarray(parts[0][0]), parts[0][1]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _pearson_columns(ref: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Pearson correlation of ref with each column of d; NaN where either has zero variance."""
    ref_c = ref - ref.mean()
    ref_sd = ref_c.std()
    out = np.full(d.shape[1], np.nan)
    for k in range(d.shape[1]):
        col = d[:, k] - d[:, k].mean()
        sd = col.std()
        if sd > 0.0 and ref_sd > 0.0:
            out[k] = float((ref_c * col).mean() / (ref_sd * sd))
    return out


def _binned_mean_square(values: np.ndarray, which: np.ndarray, n_bins: int):
    """(mean of values**2 per bin, NaN below 30 samples; sample count per bin)."""
    out = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=int)
    for i in range(n_bins):
        sel = which == i
        counts[i] = int(sel.sum())
        if counts[i] >= 30:
            out[i] = float(np.mean(values[sel] ** 2))
    return out, counts


def _log_bins(values: np.ndarray, count: int) -> np.ndarray:
    v = values[values > 0.0]
    if len(v) == 0:
        raise DataError("no positive values to bin")
    lo = np.quantile(v, 0.001)
    hi = v.max() * (1.0 + 1e-9)
    lo = min(lo, hi / 10.0)
    return np.geomspace(lo, hi, count + 1)


def _mirrored_delta_edges(deltas: np.ndarray, count: int) -> np.ndarray:
    """Log-spaced |delta| edges mirrored across 0; the middle bin holds zeros."""
    mags = np.abs(deltas)
    mags = mags[mags > 0.0]
    if len(mags) == 0:
        # degenerate series: a single central bin plus sentinels
        return np.array([-2.0, -0.5, 0.5, 2.0])
    lo = max(np.quantile(mags, 0.01), mags.max() * 1e-12)
    hi = mags.max() * (1.0 + 1e-9)
    pos = np.geomspace(lo, hi, count + 1)
    return np.concatenate([-pos[::-1], pos])


def conditional_delta_distribution(frame: SeriesFrame, x: float, dt: float) -> HistogramFamily:
    """P(Delta n | n) of bid volume at x: one normalized histogram per conditioning bin.

    The _CONDITIONING_BINS conditioning bins are log-spaced over the observed volumes; those
    with fewer than _MIN_BIN_SAMPLES observations are dropped and flagged in ``kept``.
    """
    lag = _lag_steps(frame, dt)
    now, delta = _lagged(frame, frame.bid[:, _bin_column(frame, x)], lag)
    n_edges = _log_bins(now, _CONDITIONING_BINS)
    d_edges = _mirrored_delta_edges(delta, _DELTA_BINS)
    centers = 0.5 * (d_edges[:-1] + d_edges[1:])
    widths = np.diff(d_edges)
    densities = np.zeros((_CONDITIONING_BINS, len(centers)))
    counts = np.zeros(_CONDITIONING_BINS, dtype=int)
    kept = np.zeros(_CONDITIONING_BINS, dtype=bool)
    which = np.digitize(now, n_edges) - 1
    for i in range(_CONDITIONING_BINS):
        sel = delta[which == i]
        counts[i] = len(sel)
        if counts[i] < _MIN_BIN_SAMPLES:
            continue
        kept[i] = True
        hist, _ = np.histogram(sel, bins=d_edges)
        total = hist.sum()
        if total:
            densities[i] = hist / (total * widths)
    return HistogramFamily(
        delta_edges=d_edges,
        delta_centers=centers,
        n_edges=n_edges,
        densities=densities,
        counts=counts,
        kept=kept,
        meta={"x": x, "side": "bid", "dt": dt, "lag_steps": lag, "min_samples": _MIN_BIN_SAMPLES},
    )


def mean_delta_vs_n(frame: SeriesFrame, dt: float) -> Curve:
    """Slope of <Delta n> against n for the bid volume at each tracked x that allows one.

    At each x the volumes are cut into _MEAN_DELTA_BINS log bins, and the OLS
    slope of the mean volume change against the mean volume, over the bins
    holding 30 samples or more, estimates -sigma_out(x) <zeta> dt.  An x is
    kept, with the sample count of its fit, only when 3 or more bins hold 30
    samples; DataError if none is.  The bins span at least a decade, a ratio
    of ~1.21 per bin, so a book whose volumes barely move keeps no x: in
    5,000-tick reference runs a mid cell's volume has a relative std of ~1 %
    for KSTT, which keeps none of its 16 cells, and ~5 % for CS, which keeps
    about a third of its 64.
    """
    lag = _lag_steps(frame, dt)
    xs, slopes, counts = [], [], []
    for k, x in enumerate(frame.x_bins):
        now, delta = _lagged(frame, frame.bid[:, k], lag)
        try:
            edges = _log_bins(now, _MEAN_DELTA_BINS)
        except DataError:  # no positive volume at this x
            continue
        which = np.digitize(now, edges) - 1
        means, deltas, count = [], [], 0
        for i in range(_MEAN_DELTA_BINS):
            sel = which == i
            if sel.sum() >= 30:
                means.append(now[sel].mean())
                deltas.append(delta[sel].mean())
                count += int(sel.sum())
        if len(means) >= 3:
            A = np.column_stack([means, np.ones(len(means))])
            xs.append(x)
            slopes.append(float(np.linalg.lstsq(A, deltas, rcond=None)[0][0]))
            counts.append(count)
    if not xs:
        raise DataError("no x bin had enough volume samples for mean-delta")
    xs = np.array(xs)
    return Curve(
        bin_centers=xs, values=np.array(slopes), counts=np.array(counts), bin_edges=xs,
        meta={"statistic": "mean_delta_slope", "dt": dt},
    )


def spatial_correlation(frame: SeriesFrame, x_ref: float, dt: float) -> Curve:
    """Pearson correlation of bid Delta n at x_ref against bid Delta n at every tracked bin.

    Bins with zero variance get NaN (undefined-correlation marker).
    """
    _, d = _lagged(frame, frame.bid, _lag_steps(frame, dt))
    return Curve(
        bin_centers=frame.x_bins.copy(),
        values=_pearson_columns(d[:, _bin_column(frame, x_ref)], d),
        counts=np.full(d.shape[1], len(d)),
        bin_edges=frame.x_bins.copy(),
        meta={"x_ref": x_ref, "side": "bid", "dt": dt, "statistic": "pearson_delta_correlation"},
    )


def hill_tail_index(samples: np.ndarray, top_fraction: float) -> float:
    """Hill estimator of the ccdf tail index over the top fraction of samples."""
    s = np.sort(np.asarray(samples, dtype=float))
    s = s[s > 0.0]
    k = max(int(len(s) * top_fraction), 20)
    if len(s) <= k + 1:
        raise DataError(f"too few positive samples ({len(s)}) for Hill estimation")
    if s[-1] == s[-k - 1]:
        raise DataError(f"the top {k + 1} samples tie at {s[-1]:g}; the Hill estimate is undefined")
    return float(1.0 / np.mean(np.log(s[-k:] / s[-k - 1])))


def excess_kurtosis(v: np.ndarray) -> float:
    """Biased Fisher excess kurtosis as scipy.stats.kurtosis computes it; NaN, unwarned, at zero variance."""
    mean = np.mean(v)
    d2 = np.square(v - mean)
    m2 = np.mean(d2)
    if m2 <= (np.finfo(float).eps * mean) ** 2:  # scipy's zero-variance threshold
        return float("nan")
    return float(np.mean(np.square(d2)) / m2**2 - 3.0)


def return_distribution(velocities: np.ndarray, tau: float) -> ReturnDistribution:
    """pdf of the absolute one-tick return |v tau|, over the std of v tau, with tail exponents.

    The Hill estimate over the top fraction gives the primary pdf exponent
    (ccdf index + 1); an OLS fit of the log-log pdf over the same window is
    the cross-check.  A discrepancy above 0.5 flags the fit, as does an
    insufficient sample count (tail exponents omitted).
    """
    v = np.asarray(velocities, dtype=float)
    r = np.abs(v) * tau
    norm = float(np.std(v * tau))
    if norm <= 0.0:
        raise DataError("velocity series has zero dispersion; nothing to normalize")
    r = r / norm
    pos = r[r > 0.0]
    if len(pos) == 0:
        raise DataError("all returns are exactly zero")
    edges = _log_bins(pos, _RETURN_BINS)
    hist, _ = np.histogram(pos, bins=edges)
    widths = np.diff(edges)
    dens = hist / (hist.sum() * widths)
    centers = np.sqrt(edges[:-1] * edges[1:])
    flags: list[str] = []
    tail_hill = tail_ols = None
    if len(pos) < _MIN_TAIL_SAMPLES:
        flags.append(f"insufficient_samples({len(pos)}<{_MIN_TAIL_SAMPLES})")
    else:
        ccdf_index = hill_tail_index(pos, _TAIL_FRACTION)
        tail_hill = ccdf_index + 1.0
        # a true power law gives depth-independent Hill estimates; thin tails
        # (Gaussian and the like) drift upward as the window narrows
        deeper = hill_tail_index(pos, _TAIL_FRACTION / 2.0)
        if abs(deeper - ccdf_index) > 0.5:
            flags.append("no_stable_power_law")
        lo = np.quantile(pos, 1.0 - _TAIL_FRACTION)
        sel = (centers > lo) & (dens > 0.0)
        if sel.sum() >= 4:
            slope = np.polyfit(np.log(centers[sel]), np.log(dens[sel]), 1)[0]
            tail_ols = float(-slope)
            if abs(tail_ols - tail_hill) > 0.5:
                flags.append("estimator_discrepancy")
        else:
            flags.append("no_power_law_window")
    return ReturnDistribution(
        bin_centers=centers,
        density=dens,
        tail_exponent=tail_hill,
        tail_exponent_ols=tail_ols,
        normalization=norm,
        sample_count=len(pos),
        flags=flags,
        meta={"tau": tau, "normalization": "std", "top_fraction": _TAIL_FRACTION,
              "bin_edges": edges.tolist()},
    )


def velocity_variance_vs_n0(frame: SeriesFrame, n0_bins: int = 12) -> Curve:
    """<v^2> per log-spaced n0 bin, for comparison with theory; DataError if no bin has 30 samples."""
    if len(frame.times) == 0:
        raise DataError("empty frame")
    n0 = frame.n0s
    edges = _log_bins(n0, n0_bins)
    vals, counts = _binned_mean_square(frame.velocities, np.digitize(n0, edges) - 1, len(edges) - 1)
    if counts.max() < 30:
        raise DataError("no n0 bin holds the 30 samples a velocity variance needs")
    return Curve(
        bin_centers=np.sqrt(edges[:-1] * edges[1:]),
        values=vals,
        counts=counts,
        bin_edges=edges,
        meta={"statistic": "velocity_variance_vs_n0"},
    )


def velocity_volume_correlation(frame: SeriesFrame, dt: float) -> dict[str, Curve]:
    """Pearson correlation of v with Delta n per tracked x bin, for each side.

    The velocity driving the change over [t, t + lag) is the mean of
    v[t..t+lag-1], which is v[t] itself at lag 1.
    """
    lag = _lag_steps(frame, dt)
    # The zero tail pads to length T; a window starting at a t < b - lag ends before b.
    padded = np.concatenate([frame.velocities, np.zeros(lag - 1)])
    vv, _ = _lagged(frame, np.lib.stride_tricks.sliding_window_view(padded, lag).mean(axis=1), lag)
    out: dict[str, Curve] = {}
    for side, volumes in (("bid", frame.bid), ("ask", frame.ask)):
        _, d = _lagged(frame, volumes, lag)
        out[side] = Curve(
            bin_centers=frame.x_bins.copy(),
            values=_pearson_columns(vv, d),
            counts=np.full(d.shape[1], len(vv)),
            bin_edges=frame.x_bins.copy(),
            meta={"side": side, "dt": dt, "statistic": "velocity_volume_correlation"},
        )
    return out


def rms_delta_vs_velocity(frame: SeriesFrame, v_bins: np.ndarray | int = 13) -> dict[str, Curve]:
    """Root-mean-square total volume change per velocity bin, for each side.

    The total change sums Delta n over the tracked x bins; velocity bins are
    linear and symmetric around 0.
    """
    vv, _ = _lagged(frame, frame.velocities, 1)
    if isinstance(v_bins, (int, np.integer)):
        vmax = np.quantile(np.abs(vv), 0.995)
        if vmax <= 0:
            raise DataError("velocity series is identically zero")
        edges = np.linspace(-vmax, vmax, int(v_bins) + 1)
    else:
        edges = np.asarray(v_bins, dtype=float)
    out: dict[str, Curve] = {}
    which = np.digitize(vv, edges) - 1
    for side, volumes in (("bid", frame.bid), ("ask", frame.ask)):
        total = _lagged(frame, volumes, 1)[1].sum(axis=1)
        mean_square, counts = _binned_mean_square(total, which, len(edges) - 1)
        out[side] = Curve(
            bin_centers=0.5 * (edges[:-1] + edges[1:]),
            values=np.sqrt(mean_square),
            counts=counts,
            bin_edges=edges,
            meta={"side": side, "statistic": "rms_delta_vs_velocity"},
        )
    return out


def _mo_model_jac(theta: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The clamped (buy, sell) response at theta = (k0, gap, k1, v0) and its Jacobian; clamped rows get 0."""
    k0, gap, k1, v0 = theta
    w = v / v0
    th, e = np.tanh(w), np.exp(-np.abs(w))
    se = 2.0 * e / (1.0 + e * e)
    model = np.concatenate(_trend(th, e, k0, k1 + gap, k1, v0, np.maximum))
    tilt, bend = np.concatenate([w * k0 * se * se, -w * k0 * se * se]), np.tile(w * k1 * se * th, 2)
    jac = np.column_stack([np.concatenate([th, -th]) * v0, np.full(len(model), v0),
                           np.tile(1.0 - se, 2) * v0, model / v0 - tilt - bend])
    jac[model <= 0.0] = 0.0
    return model, jac


def _levenberg_marquardt(theta: np.ndarray, v: np.ndarray, y: np.ndarray, lo: np.ndarray):
    """Least squares of the response to y from theta, held at theta >= lo: (theta, cost, jac, status)."""
    model, jac = _mo_model_jac(theta, v)
    r = model - y
    if not (np.isfinite(r).all() and np.isfinite(jac).all()):
        raise NumericError("residuals or Jacobian not finite at the start")
    cost, mu, nu = 0.5 * (r @ r), 1e-3, 2.0
    for _ in range(_FIT_MAX_NFEV - 1):
        g, a = jac.T @ r, jac.T @ jac
        free = (theta > lo) | (g < 0.0)  # a parameter at its bound moves only inward
        scale = np.maximum(np.diag(a), np.finfo(float).tiny)[free]
        step = np.zeros(4)
        step[free] = np.linalg.solve(a[np.ix_(free, free)] + mu * np.diag(scale), -g[free])
        new = np.maximum(theta + step, lo)
        step = new - theta
        if np.all(np.abs(step) <= 1e-10 * np.abs(theta)):
            return theta, cost, jac, 3
        model, new_jac = _mo_model_jac(new, v)
        new_r = model - y
        new_cost = 0.5 * (new_r @ new_r)
        predicted = -(g @ step + 0.5 * (step @ a @ step))
        ratio = (cost - new_cost) / predicted if predicted > 0.0 else -1.0
        if not ratio > 0.0:  # rejected, also when new_cost is NaN
            mu, nu = mu * nu, 2.0 * nu
            continue
        done = cost - new_cost < 1e-10 * cost and ratio > 0.25
        theta, r, jac, cost = new, new_r, new_jac, new_cost
        if done:
            return theta, cost, jac, 2
        mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 2.0
    return theta, cost, jac, 0


def fit_market_order_response(v_samples: np.ndarray, mo_flows: np.ndarray,
                              n0s: np.ndarray) -> FitReport:
    """Joint nonlinear least squares of the buy/sell market-order response.

    mo_flows has columns (buy, sell).  Fits (k0, gap = k_inf - k1, k1, v0) >= (0, 0,
    0, 1e-9 std(v)) from 8 seeded initial points; the best converged one wins.  Each
    runs a bounded Levenberg-Marquardt on the analytic Jacobian (Nielsen's damping,
    Marquardt's scaling; a parameter at its bound stays while the gradient points
    out) for at most _FIT_MAX_NFEV evaluations, and stops with status 2 on an
    accepted step (gain ratio > 0.25) that lowers the cost by < 1e-10 of it, 3 on
    a step < 1e-10 of each parameter, 0 at the cap; status > 0 converged.  A start
    with non-finite residuals or Jacobian, or a singular damped solve, is recorded
    with its error and skipped.  When k0 > 0 the report carries the n0-to-k0
    diagnostic ratio of the trend-following balance, mean(n0s) / k0.
    """
    v = np.asarray(v_samples, dtype=float)
    flows = np.asarray(mo_flows, dtype=float)
    if flows.ndim != 2 or flows.shape[1] != 2 or len(flows) != len(v):
        raise ValueError("mo_flows must have shape (len(v_samples), 2)")
    if len(v) < 8:
        raise DataError(f"need at least 8 (v, flow) pairs, got {len(v)}")
    y = np.concatenate([flows[:, 0], flows[:, 1]])
    v_scale = max(float(np.std(v)), 1e-12)
    f_scale = max(float(np.mean(np.abs(flows))), 1e-12)
    rng = np.random.default_rng(_FIT_SEED)
    lo = np.array([0.0, 0.0, 0.0, 1e-9 * v_scale])
    best = None
    trace = []
    for start in range(8):
        theta0 = np.array([f_scale / v_scale] * 3 + [v_scale]) * np.exp(rng.uniform(-1.0, 1.0, 4))
        theta0 = np.clip(theta0, lo + 1e-12, None)
        try:
            sol = _levenberg_marquardt(theta0, v, y, lo)
        except (NumericError, np.linalg.LinAlgError) as exc:  # a bad start; recorded, not fatal
            trace.append({"start": start, "error": str(exc)})
            continue
        _, cost, _, status = sol
        trace.append({"start": start, "cost": float(cost), "status": status})
        if status > 0 and (best is None or cost < best[1]):
            best = sol
    if best is None:
        return FitReport(
            parameters={},
            residual_norm=float("nan"),
            sample_count=len(v),
            converged=False,
            diagnostics={"residual_trace": trace},
        )
    (k0, gap, k1, v0), cost, jac, _ = best
    k_inf = k1 + gap
    dof = max(len(y) - 4, 1)
    # unit columns: v0 and the k's differ by orders of magnitude, and pinv's cutoff
    # on the raw J^T J would drop the weakest direction and shrink its errors
    norms = np.linalg.norm(jac, axis=0)
    norms[norms == 0.0] = 1.0
    try:
        cov = 2.0 * cost / dof * np.linalg.pinv((jac / norms).T @ (jac / norms)) / np.outer(norms, norms)
    except np.linalg.LinAlgError:
        cov = np.full((4, 4), np.nan)
    # k_inf = k1 + gap, so its variance carries their covariance
    var = np.append(np.diag(cov), cov[1, 1] + cov[2, 2] + 2.0 * cov[1, 2])
    err = np.sqrt(np.maximum(var, 0.0))
    params = {
        "k0": (float(k0), float(err[0])),
        "k_inf": (float(k_inf), float(err[4])),
        "k1": (float(k1), float(err[2])),
        "v0": (float(v0), float(err[3])),
    }
    diagnostics: dict = {"residual_trace": trace}
    if k0 > 0.0:
        diagnostics["n0_over_k0"] = float(np.mean(n0s) / k0)
    return FitReport(
        parameters=params,
        residual_norm=float(np.sqrt(2.0 * cost)),
        sample_count=len(v),
        converged=True,
        diagnostics=diagnostics,
    )
