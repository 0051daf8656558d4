"""Statistics of order-book series: volume-change laws, return tails, velocity coupling.

All analyzers are pure functions of an immutable SeriesFrame (no hidden RNG;
the nonlinear fit's multi-start points come from a fixed internal seed).
Frames come either from simulation runs or from ingested snapshot series.
Volume changes are measured at a lag, Delta n(x, t) = n(x, t) - n(x, t - dt),
and never straddle a segment boundary (data gaps split frames into segments).

Binning follows the heavy-tail conventions: log-spaced bins for volumes and
|Delta n| (mirrored for negative changes), linear bins for positions and
velocities.  Every result carries its bin edges and sample counts so outputs
are self-describing when serialized.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import optimize

from .dynamics import trend_response
from .errors import DataError

__all__ = [
    "SeriesFrame",
    "FitReport",
    "Curve",
    "HistogramFamily",
    "ReturnDistribution",
    "AffineFit",
    "conditional_delta_distribution",
    "mean_delta_vs_n",
    "spatial_correlation",
    "return_distribution",
    "velocity_variance_vs_n0",
    "velocity_volume_correlation",
    "rms_delta_vs_velocity",
    "fit_market_order_response",
    "hill_tail_index",
]

_FIT_SEED = 718293  # fixed so analyzers stay deterministic per input
_MIN_BIN_SAMPLES = 1000


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

    def side(self, name: str) -> np.ndarray:
        if name == "bid":
            return self.bid
        if name == "ask":
            return self.ask
        raise ValueError(f"side must be 'bid' or 'ask', got {name!r}")


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
    densities: np.ndarray  # shape (n_bins, delta_bins); rows integrate to 1
    counts: np.ndarray
    kept: np.ndarray  # bool per n bin; sparse bins are dropped but reported
    meta: dict = dataclass_field(default_factory=dict)


@dataclass
class AffineFit:
    slope: float
    intercept: float
    slope_stderr: float
    intercept_stderr: float
    n_bins: int
    sample_count: int
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


def _segment_deltas(frame: SeriesFrame, series: np.ndarray, lag: int):
    """(value at t, delta over [t, t+lag], segment-local index t) across segments."""
    now, delta, idx = [], [], []
    for a, b in frame.segments:
        if b - a <= lag:
            continue
        s = series[a:b]
        now.append(s[:-lag])
        delta.append(s[lag:] - s[:-lag])
        idx.append(np.arange(a, b - lag))
    if not now:
        raise DataError("no segment is longer than the requested lag")
    return np.concatenate(now), np.concatenate(delta), np.concatenate(idx)


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


def conditional_delta_distribution(
    frame: SeriesFrame,
    x: float,
    n_bin_edges: np.ndarray | int,
    dt: float,
    side: str = "bid",
    delta_bins: int = 40,
    min_samples: int = _MIN_BIN_SAMPLES,
) -> HistogramFamily:
    """P(Delta n | n) at position x: one normalized histogram per conditioning bin.

    Conditioning bins with fewer than min_samples observations are dropped and
    flagged in ``kept``.
    """
    if len(frame.times) == 0:
        raise DataError("empty frame")
    lag = _lag_steps(frame, dt)
    col = _bin_column(frame, x)
    series = frame.side(side)[:, col]
    now, delta, _ = _segment_deltas(frame, series, lag)
    if isinstance(n_bin_edges, (int, np.integer)):
        n_edges = _log_bins(now, int(n_bin_edges))
    else:
        n_edges = np.asarray(n_bin_edges, dtype=float)
    d_edges = _mirrored_delta_edges(delta, delta_bins)
    centers = 0.5 * (d_edges[:-1] + d_edges[1:])
    widths = np.diff(d_edges)
    n_bins = len(n_edges) - 1
    densities = np.zeros((n_bins, len(centers)))
    counts = np.zeros(n_bins, dtype=int)
    kept = np.zeros(n_bins, dtype=bool)
    which = np.digitize(now, n_edges) - 1
    for i in range(n_bins):
        sel = delta[which == i]
        counts[i] = len(sel)
        if counts[i] < min_samples:
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
        meta={"x": x, "side": side, "dt": dt, "lag_steps": lag, "min_samples": min_samples},
    )


def mean_delta_vs_n(
    frame: SeriesFrame, x: float, dt: float, side: str = "bid", bins: int = 12
) -> AffineFit:
    """OLS of the binned mean volume change against the current volume.

    The slope estimates -sigma_out(x) <zeta> dt and the intercept estimates
    sigma_in(x) <xi> dt.
    """
    lag = _lag_steps(frame, dt)
    col = _bin_column(frame, x)
    series = frame.side(side)[:, col]
    now, delta, _ = _segment_deltas(frame, series, lag)
    edges = _log_bins(now, bins)
    which = np.digitize(now, edges) - 1
    xs, ys, cs = [], [], []
    for i in range(len(edges) - 1):
        sel = which == i
        if sel.sum() < 30:
            continue
        xs.append(now[sel].mean())
        ys.append(delta[sel].mean())
        cs.append(int(sel.sum()))
    if len(xs) < 3:
        raise DataError(f"fewer than 3 usable volume bins at x={x}")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    A = np.column_stack([xs, np.ones_like(xs)])
    coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    dof = max(len(xs) - 2, 1)
    resid = ys - A @ coef
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(A.T @ A)
    return AffineFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        slope_stderr=float(np.sqrt(cov[0, 0])),
        intercept_stderr=float(np.sqrt(cov[1, 1])),
        n_bins=len(xs),
        sample_count=int(sum(cs)),
        meta={"x": x, "side": side, "dt": dt, "bin_means": xs.tolist()},
    )


def spatial_correlation(frame: SeriesFrame, x_ref: float, dt: float, side: str = "bid") -> Curve:
    """Pearson correlation of Delta n at x_ref against Delta n at every tracked bin.

    Bins with zero variance get NaN (undefined-correlation marker).
    """
    lag = _lag_steps(frame, dt)
    ref_col = _bin_column(frame, x_ref)
    vol = frame.side(side)
    deltas = []
    for a, b in frame.segments:
        if b - a > lag:
            deltas.append(vol[a + lag : b] - vol[a : b - lag])
    if not deltas:
        raise DataError("no segment is longer than the requested lag")
    d = np.concatenate(deltas, axis=0)
    ref = d[:, ref_col]
    ref_c = ref - ref.mean()
    ref_sd = ref_c.std()
    out = np.full(d.shape[1], np.nan)
    for k in range(d.shape[1]):
        col = d[:, k] - d[:, k].mean()
        sd = col.std()
        if sd > 0.0 and ref_sd > 0.0:
            out[k] = float((ref_c * col).mean() / (ref_sd * sd))
    return Curve(
        bin_centers=frame.x_bins.copy(),
        values=out,
        counts=np.full(d.shape[1], len(ref)),
        bin_edges=frame.x_bins.copy(),
        meta={"x_ref": x_ref, "side": side, "dt": dt, "statistic": "pearson_delta_correlation"},
    )


def hill_tail_index(samples: np.ndarray, top_fraction: float = 0.01) -> float:
    """Hill estimator of the ccdf tail index over the top fraction of samples."""
    s = np.sort(np.asarray(samples, dtype=float))
    s = s[s > 0.0]
    k = max(int(len(s) * top_fraction), 20)
    if len(s) <= k + 1:
        raise DataError(f"too few positive samples ({len(s)}) for Hill estimation")
    tail = s[-k:]
    return float(1.0 / np.mean(np.log(tail / s[-k - 1])))


def return_distribution(
    velocities: np.ndarray,
    tau: float,
    normalization: str = "std",
    bins: int = 60,
    top_fraction: float = 0.01,
    min_samples_for_tail: int = 100_000,
) -> ReturnDistribution:
    """pdf of the normalized absolute one-tick return |v tau| with tail exponents.

    The Hill estimate over the top fraction gives the primary pdf exponent
    (ccdf index + 1); an OLS fit of the log-log pdf over the same window is
    the cross-check.  A discrepancy above 0.5 flags the fit, as does an
    insufficient sample count (tail exponents omitted).
    """
    v = np.asarray(velocities, dtype=float)
    r = np.abs(v) * tau
    norm = float(np.std(v * tau)) if normalization == "std" else 1.0
    if norm <= 0.0:
        raise DataError("velocity series has zero dispersion; nothing to normalize")
    r = r / norm
    pos = r[r > 0.0]
    if len(pos) == 0:
        raise DataError("all returns are exactly zero")
    edges = _log_bins(pos, bins)
    hist, _ = np.histogram(pos, bins=edges)
    widths = np.diff(edges)
    dens = hist / (hist.sum() * widths)
    centers = np.sqrt(edges[:-1] * edges[1:])
    flags: list[str] = []
    tail_hill = tail_ols = None
    if len(pos) < min_samples_for_tail:
        flags.append(f"insufficient_samples({len(pos)}<{min_samples_for_tail})")
    else:
        ccdf_index = hill_tail_index(pos, top_fraction)
        tail_hill = ccdf_index + 1.0
        # a true power law gives depth-independent Hill estimates; thin tails
        # (Gaussian and the like) drift upward as the window narrows
        deeper = hill_tail_index(pos, top_fraction / 2.0)
        if abs(deeper - ccdf_index) > 0.5:
            flags.append("no_stable_power_law")
        lo = np.quantile(pos, 1.0 - top_fraction)
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
        meta={"tau": tau, "normalization": normalization, "top_fraction": top_fraction,
              "bin_edges": edges.tolist()},
    )


def velocity_variance_vs_n0(frame: SeriesFrame, n0_bins: np.ndarray | int = 12) -> Curve:
    """<v^2> per n0 bin (log-spaced by default), for comparison with theory."""
    if len(frame.times) == 0:
        raise DataError("empty frame")
    n0 = frame.n0s
    v = frame.velocities
    edges = _log_bins(n0, int(n0_bins)) if isinstance(n0_bins, (int, np.integer)) else np.asarray(n0_bins, dtype=float)
    which = np.digitize(n0, edges) - 1
    nb = len(edges) - 1
    vals = np.full(nb, np.nan)
    counts = np.zeros(nb, dtype=int)
    centers = np.empty(nb)
    for i in range(nb):
        sel = which == i
        counts[i] = int(sel.sum())
        centers[i] = np.sqrt(edges[i] * edges[i + 1])
        if counts[i] >= 30:
            vals[i] = float(np.mean(v[sel] ** 2))
    return Curve(
        bin_centers=centers,
        values=vals,
        counts=counts,
        bin_edges=edges,
        meta={"statistic": "velocity_variance_vs_n0"},
    )


def velocity_volume_correlation(frame: SeriesFrame, dt: float) -> dict[str, Curve]:
    """Pearson correlation of v with Delta n per tracked x bin, for each side."""
    lag = _lag_steps(frame, dt)
    out: dict[str, Curve] = {}
    vparts = []
    for a, b in frame.segments:
        if b - a > lag:
            # velocity driving the interval [t, t+lag): average of v over it
            vwin = frame.velocities[a : b - lag].astype(float).copy()
            if lag > 1:
                c = np.cumsum(np.concatenate([[0.0], frame.velocities[a:b]]))
                vwin = (c[lag:] - c[:-lag]) / lag
            vparts.append(vwin)
    if not vparts:
        raise DataError("no segment is longer than the requested lag")
    vv = np.concatenate(vparts)
    vc = vv - vv.mean()
    vsd = vc.std()
    for side in ("bid", "ask"):
        vol = frame.side(side)
        dparts = [vol[a + lag : b] - vol[a : b - lag] for a, b in frame.segments if b - a > lag]
        d = np.concatenate(dparts, axis=0)
        vals = np.full(d.shape[1], np.nan)
        for k in range(d.shape[1]):
            col = d[:, k] - d[:, k].mean()
            sd = col.std()
            if sd > 0.0 and vsd > 0.0:
                vals[k] = float((vc * col).mean() / (vsd * sd))
        out[side] = Curve(
            bin_centers=frame.x_bins.copy(),
            values=vals,
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
    lag = 1
    vparts = [frame.velocities[a : b - lag] for a, b in frame.segments if b - a > lag]
    if not vparts:
        raise DataError("frame too short")
    vv = np.concatenate(vparts)
    if isinstance(v_bins, (int, np.integer)):
        vmax = np.quantile(np.abs(vv), 0.995)
        if vmax <= 0:
            raise DataError("velocity series is identically zero")
        edges = np.linspace(-vmax, vmax, int(v_bins) + 1)
    else:
        edges = np.asarray(v_bins, dtype=float)
    out: dict[str, Curve] = {}
    which = np.digitize(vv, edges) - 1
    nb = len(edges) - 1
    for side in ("bid", "ask"):
        vol = frame.side(side)
        dparts = [
            (vol[a + lag : b] - vol[a : b - lag]).sum(axis=1)
            for a, b in frame.segments
            if b - a > lag
        ]
        d = np.concatenate(dparts)
        vals = np.full(nb, np.nan)
        counts = np.zeros(nb, dtype=int)
        for i in range(nb):
            sel = which == i
            counts[i] = int(sel.sum())
            if counts[i] >= 30:
                vals[i] = float(np.sqrt(np.mean(d[sel] ** 2)))
        out[side] = Curve(
            bin_centers=0.5 * (edges[:-1] + edges[1:]),
            values=vals,
            counts=counts,
            bin_edges=edges,
            meta={"side": side, "statistic": "rms_delta_vs_velocity"},
        )
    return out


def _mo_model(theta: np.ndarray, v: np.ndarray) -> np.ndarray:
    k0, gap, k1, v0 = theta
    return np.concatenate(trend_response(v, k0, k1 + gap, k1, v0))


def fit_market_order_response(
    v_samples: np.ndarray,
    mo_flows: np.ndarray,
    n0s: np.ndarray | None = None,
    max_nfev: int = 4000,
) -> FitReport:
    """Joint nonlinear least squares of the buy/sell market-order response.

    mo_flows has columns (buy, sell).  Fits (k0, k_inf, k1, v0) with a
    trust-region method restarted from 8 seeded initial points; the best
    converged solution wins.  When n0s is given, the report carries the
    n0-to-k0 diagnostic ratio of the trend-following balance.
    """
    v = np.asarray(v_samples, dtype=float)
    flows = np.asarray(mo_flows, dtype=float)
    if flows.ndim != 2 or flows.shape[1] != 2 or len(flows) != len(v):
        raise ValueError("mo_flows must have shape (len(v_samples), 2)")
    if len(v) < 8:
        raise DataError(f"need at least 8 (v, flow) pairs, got {len(v)}")
    y = np.concatenate([flows[:, 0], flows[:, 1]])

    def resid(theta):
        return _mo_model(theta, v) - y

    v_scale = max(float(np.std(v)), 1e-12)
    f_scale = max(float(np.mean(np.abs(flows))), 1e-12)
    rng = np.random.default_rng(_FIT_SEED)
    lo = np.array([0.0, 0.0, 0.0, 1e-9 * v_scale])
    hi = np.array([np.inf, np.inf, np.inf, np.inf])
    best = None
    trace = []
    for start in range(8):
        mult = np.exp(rng.uniform(-1.0, 1.0, 4))
        theta0 = np.array(
            [f_scale / v_scale * mult[0], f_scale / v_scale * mult[1],
             f_scale / v_scale * mult[2], v_scale * mult[3]]
        )
        theta0 = np.clip(theta0, lo + 1e-12, None)
        try:
            sol = optimize.least_squares(
                resid, theta0, bounds=(lo, hi), method="trf", max_nfev=max_nfev
            )
        except Exception as exc:  # singular starts etc.; recorded, not fatal
            trace.append({"start": start, "error": str(exc)})
            continue
        trace.append({"start": start, "cost": float(sol.cost), "status": int(sol.status)})
        if sol.status > 0 and (best is None or sol.cost < best.cost):
            best = sol
    if best is None:
        return FitReport(
            parameters={},
            residual_norm=float("nan"),
            sample_count=len(v),
            converged=False,
            diagnostics={"residual_trace": trace},
        )
    k0, gap, k1, v0 = best.x
    k_inf = k1 + gap
    dof = max(len(y) - 4, 1)
    s2 = 2.0 * best.cost / dof
    jtj = best.jac.T @ best.jac
    try:
        cov = s2 * np.linalg.pinv(jtj)
        err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        err = np.full(4, np.nan)
    # error of k_inf = k1 + gap, ignoring covariance cross-term sign
    err_kinf = float(np.hypot(err[1], err[2]))
    params = {
        "k0": (float(k0), float(err[0])),
        "k_inf": (float(k_inf), err_kinf),
        "k1": (float(k1), float(err[2])),
        "v0": (float(v0), float(err[3])),
    }
    diagnostics: dict = {"residual_trace": trace}
    if n0s is not None and k0 > 0.0:
        diagnostics["n0_over_k0"] = float(np.mean(n0s) / k0)
    return FitReport(
        parameters=params,
        residual_norm=float(np.sqrt(2.0 * best.cost)),
        sample_count=len(v),
        converged=True,
        diagnostics=diagnostics,
    )
