"""Least-squares extraction of dip, saturation, and composition parameters.

The contrast fit is linear in its one parameter and solved in closed form.
The dip and saturation fits are nonlinear and share one driver,
Levenberg-Marquardt (scipy.optimize.leastsq) with numerically differenced
Jacobians, stopping on a relative cost change below 1e-10.
Non-convergence is reported through the ``converged`` flag with best-so-far
parameters, never as an exception. Parameter uncertainties are 1-sigma
values from the scaled LM covariance. scipy.optimize is imported inside
the driver, so a command that fits nothing does not load it.

Dips are fitted to a :class:`~lambda_cpt.experiments.Spectrum` and modeled
as a flat baseline minus a sum of Gaussians, the workflow used for every
spectrum here; the underlying lineshape question is open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rate_model import SimplifiedParams
from .experiments import Spectrum

__all__ = [
    "DipFit",
    "SaturationFit",
    "fit_dips",
    "fit_saturation",
    "fit_contrast_curve",
    "recover_simplified",
]

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# TODO: optional Lorentzian lineshape once the pulsed-trapping lineshape
# question is settled; Gaussian matches the current analysis workflow.


@dataclass(frozen=True)
class DipFit:
    """Result of a k-Gaussian dip fit, sorted by center.

    no_dip flags fits whose largest amplitude is indistinguishable from the
    noise floor; converged is False when the optimizer hit its evaluation
    budget instead of the cost tolerance.
    """

    centers: np.ndarray
    fwhms: np.ndarray
    amplitudes: np.ndarray
    baseline: float
    residual_norm: float
    converged: bool
    no_dip: bool
    center_sigmas: np.ndarray
    fwhm_sigmas: np.ndarray


@dataclass(frozen=True)
class SaturationFit:
    """Exponential saturation fit p_inf - (p_inf - p0) e^{-n/n_s}.

    identifiable is False when the fitted asymptote and start coincide
    (a constant series pins no time scale).
    """

    n_s: float
    p_inf: float
    p0: float
    residual_norm: float
    converged: bool
    identifiable: bool
    n_s_sigma: float
    p_inf_sigma: float


def _dip_model(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    y = np.full_like(x, params[0])
    for amp, center, sigma in params[1:].reshape(-1, 3):
        y = y - amp * np.exp(-((x - center) ** 2) / (2.0 * sigma * sigma))
    return y


def _local_minima(y: np.ndarray) -> np.ndarray:
    interior = np.nonzero((y[1:-1] < y[:-2]) & (y[1:-1] <= y[2:]))[0] + 1
    return interior


def _noise_scale(y: np.ndarray, baseline: float) -> float:
    return 1.4826 * float(np.median(np.abs(y - baseline)))


def _leastsq(
    residuals, params0: np.ndarray, maxfev: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Minimize |residuals(p)|^2 from params0 by Levenberg-Marquardt.

    Returns the parameters, the residuals there, the 1-sigma values and
    whether the cost tolerance (rather than the ``maxfev`` evaluation
    budget) stopped the search. The sigmas are inf when the covariance is
    singular or the fit has no degrees of freedom.
    """
    from scipy.optimize import leastsq

    popt, cov, info, _, ier = leastsq(
        residuals, params0, ftol=1e-10, maxfev=maxfev, full_output=True
    )
    res = info["fvec"]
    dof = len(res) - len(popt)
    if cov is None or dof <= 0:
        sigmas = np.full(len(popt), np.inf)
    else:
        sigmas = np.sqrt(np.abs(np.diag(cov)) * (float(res @ res) / dof))
    return popt, res, sigmas, ier in (1, 2, 3, 4)


def fit_dips(spec: Spectrum, k: int, init_centers: np.ndarray | None = None) -> DipFit:
    """Fit a flat baseline minus k Gaussians to a spectrum.

    Initial dip centers come from ``init_centers`` when given, otherwise
    from the local minima lying below baseline - 3 * (robust noise scale),
    falling back to the k deepest local minima when the noiseless spectrum
    leaves the robust scale at zero.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    x, y = spec.detuning_grid, spec.signal
    if len(x) < 3 * k + 1:
        raise ValueError("grid too short for the requested dip count")

    baseline0 = float(np.median(y))
    noise = _noise_scale(y, baseline0)
    if init_centers is not None:
        centers0 = np.sort(np.asarray(init_centers, dtype=float))[:k]
        if len(centers0) != k:
            raise ValueError("init_centers must provide at least k values")
    else:
        minima = _local_minima(y)
        deep = minima[y[minima] < baseline0 - 3.0 * noise] if noise > 0 else minima
        if len(deep) == 0:
            deep = minima if len(minima) else np.array([int(np.argmin(y))])
        order = np.argsort(y[deep])
        picked = deep[order[:k]]
        while len(picked) < k:
            picked = np.append(picked, int(np.argmin(y)))
        centers0 = np.sort(x[picked])

    sigma0 = float(x[-1] - x[0]) / (10.0 * k)
    params0 = [baseline0]
    for c in centers0:
        depth = baseline0 - float(np.interp(c, x, y))
        params0.extend([max(depth, 1e-6), c, sigma0])

    def residuals(p: np.ndarray) -> np.ndarray:
        return _dip_model(x, p) - y

    popt, res, sigmas, converged = _leastsq(
        residuals, np.asarray(params0), maxfev=500 * (len(params0) + 1)
    )
    amps = popt[1::3]
    centers = popt[2::3]
    widths = np.abs(popt[3::3]) * FWHM_PER_SIGMA
    order = np.argsort(centers)
    # Judged against the post-fit residual scatter, not the pre-fit spread:
    # a genuine dip inflates the raw spread with structure, not noise.
    rms = float(np.sqrt(res @ res / max(1, len(res) - len(popt))))
    floor = max(5.0 * rms, 1e-8 * max(1.0, abs(popt[0])))
    return DipFit(
        centers=centers[order],
        fwhms=widths[order],
        amplitudes=amps[order],
        baseline=float(popt[0]),
        residual_norm=float(np.sqrt(res @ res)),
        converged=converged,
        no_dip=bool(np.max(np.abs(amps)) < floor),
        center_sigmas=sigmas[2::3][order],
        fwhm_sigmas=sigmas[3::3][order] * FWHM_PER_SIGMA,
    )


def fit_saturation(series: np.ndarray) -> SaturationFit:
    """Fit the exponential saturation model to a 1-d pumping series.

    Element n of ``series`` is the population after n steps, such as
    ``pump_trace(seq).p_dark_est`` or a StepTrace's ``p_dark``.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or len(series) < 5 or not np.all(np.isfinite(series)):
        raise ValueError(
            "need a finite 1-d series of at least 5 points to fit a saturation curve"
        )
    n = np.arange(len(series), dtype=float)

    def residuals(p: np.ndarray) -> np.ndarray:
        p_inf, p0, n_s = p
        return p_inf - (p_inf - p0) * np.exp(-n / abs(n_s)) - series

    # Start n_s at the first step within 1/e of the end-to-end change: a
    # length-based guess can leave LM in the n_s -> 0 valley on short traces.
    settled = np.abs(series - series[-1]) < abs(series[0] - series[-1]) / math.e
    params0 = np.array([series[-1], series[0], max(1, int(np.argmax(settled)))])

    popt, res, sigmas, converged = _leastsq(residuals, params0, maxfev=2000)
    p_inf, p0, n_s = float(popt[0]), float(popt[1]), float(abs(popt[2]))
    return SaturationFit(
        n_s=n_s,
        p_inf=p_inf,
        p0=p0,
        residual_norm=float(np.sqrt(res @ res)),
        converged=converged,
        identifiable=bool(abs(p_inf - p0) > 1e-8),
        n_s_sigma=float(sigmas[2]),
        p_inf_sigma=float(sigmas[0]),
    )


def fit_contrast_curve(ratios: np.ndarray, values: np.ndarray) -> float:
    """Closed-form contrast a of f(r) = 1/2 + a (r^2/(1+r^2) - 1/2).

    ``values[i]`` is the probability measured at Rabi ratio ``ratios[i]``.
    The model is linear in a, so the least-squares solution is a single
    quotient. Raises ValueError when every abscissa sits at the degenerate
    1/2.
    """
    r = np.asarray(ratios, dtype=float)
    f = np.asarray(values, dtype=float)
    if r.ndim != 1 or r.shape != f.shape or len(r) < 3 or not np.isfinite([r, f]).all():
        raise ValueError("need at least 3 finite (ratio, probability) pairs")
    x = r * r / (1.0 + r * r) - 0.5
    denom = float(x @ x)
    if denom < 1e-15:
        raise ValueError("all ratios give the degenerate composition 1/2")
    return float(x @ (f - 0.5)) / denom


def recover_simplified(fit: SaturationFit) -> SimplifiedParams:
    """Invert a saturation fit to the per-step probabilities.

    From the fitted time scale, a = e^{-1/n_s}; then
    alpha_dp = 2 (1-a)(1-p_inf) and alpha_p_eff = (1-a-alpha_dp)/(1-alpha_dp).
    Values are clamped to [0, 1] against small fit excursions.
    """
    a = math.exp(-1.0 / fit.n_s)
    alpha_dp = 2.0 * (1.0 - a) * (1.0 - fit.p_inf)
    alpha_dp = min(max(alpha_dp, 0.0), 1.0)
    if alpha_dp < 1.0:
        alpha_p_eff = (1.0 - a - alpha_dp) / (1.0 - alpha_dp)
    else:
        alpha_p_eff = 0.0
    alpha_p_eff = min(max(alpha_p_eff, 0.0), 1.0)
    return SimplifiedParams(alpha_p_eff=alpha_p_eff, alpha_dp=alpha_dp)
