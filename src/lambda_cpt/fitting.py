"""Least-squares extraction of dip and saturation parameters.

The composition's contrast fit is linear in its one parameter, solved in
closed form without numpy: :func:`~lambda_cpt.rate_model.fit_contrast_curve`.
The dip and saturation fits are nonlinear and share one driver,
:func:`_leastsq`: a numpy Levenberg-Marquardt with MINPACK's column scaling
and the gain-ratio damping update of Madsen, Nielsen & Tingleff, "Methods
for non-linear least squares problems" (2004), on analytic Jacobians. It
stops with status "ftol" on MINPACK's rule (the actual and the predicted
relative cost reduction both at most FTOL = 1e-10) or with "budget" when
its evaluation budget runs out. Non-convergence is reported through the
status and the ``converged`` flag with best-so-far parameters, never as an
exception. Parameter uncertainties are 1-sigma values from the scaled LM
covariance. The package runs on numpy alone; the tests check the driver
against scipy.optimize.leastsq as an oracle. At DEBUG, the
``lambda_cpt.fitting`` logger prints one line per nonlinear fit: the model,
the status, the evaluations and whether a covariance was found.

Dips are fitted to a :class:`~lambda_cpt.experiments.Spectrum` and modeled
as a flat baseline minus a sum of Gaussians, the workflow used for every
spectrum here; the underlying lineshape question is open.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .rate_model import SimplifiedParams
from .experiments import Spectrum, _median

__all__ = [
    "DipFit",
    "SaturationFit",
    "fit_dips",
    "fit_saturation",
    "recover_simplified",
]

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
FTOL = 1e-10  # relative cost reduction at which _leastsq stops

log = logging.getLogger("lambda_cpt.fitting")

@dataclass(frozen=True)
class DipFit:
    """Result of a k-Gaussian dip fit, sorted by center.

    no_dip flags fits whose largest amplitude is indistinguishable from the
    noise floor. status is how the Levenberg-Marquardt driver ended: "ftol"
    when the relative cost reduction fell below FTOL, "budget" when it spent
    its nfev model evaluations first; converged is status == "ftol".
    """

    centers: np.ndarray
    fwhms: np.ndarray
    amplitudes: np.ndarray
    baseline: float
    residual_norm: float
    status: str
    nfev: int
    no_dip: bool
    center_sigmas: np.ndarray
    fwhm_sigmas: np.ndarray

    @property
    def converged(self) -> bool:
        return self.status == "ftol"


@dataclass(frozen=True)
class SaturationFit:
    """Exponential saturation fit p_inf - (p_inf - p0) e^{-n/n_s}.

    identifiable is False when the fitted asymptote and start coincide
    (a constant series pins no time scale). status, nfev and converged read
    as in :class:`DipFit`.
    """

    n_s: float
    p_inf: float
    p0: float
    residual_norm: float
    status: str
    nfev: int
    identifiable: bool
    n_s_sigma: float
    p_inf_sigma: float

    @property
    def converged(self) -> bool:
        return self.status == "ftol"


def _local_minima(y: np.ndarray) -> np.ndarray:
    interior = np.nonzero((y[1:-1] < y[:-2]) & (y[1:-1] <= y[2:]))[0] + 1
    return interior


def _noise_scale(y: np.ndarray, baseline: float) -> float:
    return 1.4826 * _median(np.abs(y - baseline))


def _leastsq(
    model, params0: np.ndarray, maxfev: int
) -> tuple[np.ndarray, float, np.ndarray, str, int]:
    """Minimize |r(p)|^2 from params0 by Levenberg-Marquardt.

    ``model(p)`` returns the residuals and their Jacobian at p as one array
    of len(p) + 1 rows: the Jacobian's columns, then the residuals r. Its
    Gram matrix, one product per evaluation, holds J^T J, the gradient J^T r
    and the cost r^T r at once. Each step solves (J^T J + mu diag(d^2))
    delta = -J^T r, where d is the running maximum of each Jacobian column
    norm (MINPACK's scaling, a zero column scaled by 1), and mu starts at
    1e-3 and follows the gain ratio rho (Madsen, Nielsen & Tingleff 2004).
    A trial point whose cost is not finite is a rejected step. The search
    ends with status "ftol" when the actual and the predicted relative
    reduction of the cost are both at most FTOL and rho <= 2 (MINPACK's
    ftol rule; a zero residual has converged), or with "budget" once
    ``maxfev`` evaluations of the model are spent.

    Returns the parameters, the cost |r|^2 there, the 1-sigma values, the
    status and the evaluation count. The sigmas are inf when J^T J is
    singular at the solution or the fit has no degrees of freedom. Nothing
    here warns on overflow: a cost or sigma past the float range is inf.
    """
    p = np.array(params0, dtype=float)
    eye = np.eye(len(p))
    with np.errstate(all="ignore"):
        # .dot rather than @: less call overhead on these small arrays.
        stacked = model(p)
        residuals = stacked.shape[1]
        gram = stacked.dot(stacked.T)
        cost = float(gram[-1, -1])
        nfev, status = 1, "budget"
        mu, nu, d2 = 1e-3, 2.0, None
        while cost > 0.0 and status == "budget" and nfev < maxfev:
            jtj, grad = gram[:-1, :-1], gram[:-1, -1]
            norms2 = jtj.diagonal()
            d2 = norms2 + (norms2 == 0.0) if d2 is None else np.maximum(d2, norms2)
            while nfev < maxfev:
                damping = mu * d2
                try:
                    neg_step = np.linalg.solve(jtj + eye * damping, grad)
                except np.linalg.LinAlgError:
                    mu, nu = mu * nu, 2.0 * nu
                    continue
                trial = p - neg_step
                stacked = model(trial)
                gram_new = stacked.dot(stacked.T)
                nfev += 1
                cost_new = float(gram_new[-1, -1])
                predicted = float(neg_step.dot(damping * neg_step + grad))
                rho = (cost - cost_new) / predicted if predicted > 0.0 else 0.0
                actual = 1.0 - cost_new / cost if cost_new < 100.0 * cost else -1.0
                if abs(actual) <= FTOL and predicted <= FTOL * cost and rho <= 2.0:
                    status = "ftol"
                if rho > 0.0:
                    p, gram, cost = trial, gram_new, cost_new
                    mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
                    break
                mu, nu = mu * nu, 2.0 * nu
                if status == "ftol":
                    break
        if cost == 0.0:
            status = "ftol"
        dof = residuals - len(p)
        try:
            cov = np.linalg.inv(gram[:-1, :-1]) if dof > 0 else None
        except np.linalg.LinAlgError:
            cov = None
        if cov is None:
            sigmas = np.full(len(p), np.inf)
        else:
            sigmas = np.sqrt(np.abs(cov.diagonal()) * (cost / dof))
    log.debug(
        "%s fit: %s after %d evaluations, covariance %s",
        model.__name__, status, nfev, "none" if cov is None else "found",
    )
    return p, cost, sigmas, status, nfev


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

    baseline0 = _median(y)
    if init_centers is not None:
        centers0 = np.sort(np.asarray(init_centers, dtype=float))[:k]
        if len(centers0) != k:
            raise ValueError("init_centers must provide at least k values")
    else:
        noise = _noise_scale(y, baseline0)
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

    def gaussian_dips(p: np.ndarray) -> np.ndarray:
        amp, center, sigma = p[1:].reshape(-1, 3).T[:, :, None]
        # Row i < len(p) is column i of the Jacobian; the last row holds the
        # residuals. Each dip's three rows, in amplitude, center and width,
        # are -e, -a e q / sigma and -a e q^2 / sigma, with q = (x - c) /
        # sigma and e = exp(-q^2 / 2), written in place.
        stacked = np.empty((len(p) + 1, len(x)))
        e, slope, curve = stacked[1:-1].reshape(-1, 3, len(x)).transpose(1, 0, 2)
        q = np.subtract(x, center, out=curve)
        q /= sigma
        np.multiply(q, q, out=e)
        e *= -0.5
        np.exp(e, out=e)
        np.multiply(q, e, out=slope)
        slope *= -amp / sigma
        curve *= slope
        stacked[0] = 1.0
        np.subtract(p[0] - p[1::3].dot(e), y, out=stacked[-1])
        np.negative(e, out=e)
        return stacked

    popt, cost, sigmas, status, nfev = _leastsq(
        gaussian_dips, np.asarray(params0), maxfev=500 * (len(params0) + 1)
    )
    amps = popt[1::3]
    centers = popt[2::3]
    widths = np.abs(popt[3::3]) * FWHM_PER_SIGMA
    order = np.argsort(centers)
    # Judged against the post-fit residual scatter, not the pre-fit spread:
    # a genuine dip inflates the raw spread with structure, not noise.
    rms = math.sqrt(cost / max(1, len(x) - len(popt)))
    floor = max(5.0 * rms, 1e-8 * max(1.0, abs(popt[0])))
    return DipFit(
        centers=centers[order],
        fwhms=widths[order],
        amplitudes=amps[order],
        baseline=float(popt[0]),
        residual_norm=math.sqrt(cost),
        status=status,
        nfev=nfev,
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

    def saturation(p: np.ndarray) -> np.ndarray:
        p_inf, p0, n_s = p[0], p[1], p[2]  # numpy scalars: n_s = 0 divides to inf, not an exception
        e = np.exp(n * (-1.0 / abs(n_s)))
        # The Jacobian's columns in p_inf, p0 and n_s, then the residuals.
        stacked = np.empty((4, len(n)))
        np.subtract(1.0, e, out=stacked[0])
        stacked[1] = e
        np.multiply(e, n * ((p0 - p_inf) * np.sign(n_s) / (n_s * n_s)), out=stacked[2])
        np.subtract(p[:2].dot(stacked[:2]), series, out=stacked[3])
        return stacked

    # Start n_s at the first step within 1/e of the end-to-end change: a
    # length-based guess can leave LM in the n_s -> 0 valley on short traces.
    settled = np.abs(series - series[-1]) < abs(series[0] - series[-1]) / math.e
    params0 = np.array([series[-1], series[0], max(1, int(np.argmax(settled)))])

    popt, cost, sigmas, status, nfev = _leastsq(saturation, params0, maxfev=2000)
    p_inf, p0, n_s = float(popt[0]), float(popt[1]), float(abs(popt[2]))
    return SaturationFit(
        n_s=n_s,
        p_inf=p_inf,
        p0=p0,
        residual_norm=math.sqrt(cost),
        status=status,
        nfev=nfev,
        identifiable=bool(abs(p_inf - p0) > 1e-8),
        n_s_sigma=float(sigmas[2]),
        p_inf_sigma=float(sigmas[0]),
    )


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
