"""Ground truth for passivity verdicts, from numpy/scipy alone.

Nothing here imports ``repro``: the oracle reads only the five matrices of a
descriptor system ``G(s) = C (sE - A)^{-1} B + D`` (``E``, ``A`` as dense
arrays) and proves a verdict in one of two ways.

* PASSIVE by certificate: the extended positive-real lemma with ``X = I``.
  When ``E = E^T >= 0`` and
  ``[[A + A^T, B - C^T], [B^T - C, -(D + D^T)]] <= 0`` on a regular pencil,
  the system is passive.  Unperturbed MNA models and
  ``random_passive_descriptor`` outputs satisfy it exactly.
* NOT_PASSIVE by witness: a finite pole in the closed right half plane, or a
  frequency ``w`` with ``lambda_min(G(jw) + G(jw)^H) < 0``.

Perturbed corners satisfy neither exactly; :func:`margin_argument` accepts
them as passive when the corner is stable, a frequency scan finds no witness,
and the scan's margin moved by less than a tenth from that of a certified
nominal system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

PASSIVE = "passive"
NOT_PASSIVE = "not_passive"

#: Log-spaced scan of [1e-4, 1e4] rad/s (ten points a decade), refined
#: around the minimum.
SCAN_OMEGAS = np.logspace(-4, 4, 81)


@dataclass(frozen=True)
class Truth:
    """A verdict with the evidence that proves it."""

    verdict: str
    reason: str
    #: Smallest eigenvalue of G(jw) + G(jw)^H over the scan (the witness
    #: value for NOT_PASSIVE, the margin for perturbed PASSIVE inputs).
    margin: float = float("nan")


def _scale(*matrices: np.ndarray) -> float:
    return max(1.0, max(float(np.abs(m).max(initial=0.0)) for m in matrices))


def is_regular(e: np.ndarray, a: np.ndarray) -> bool:
    """True when ``det(sE - A)`` is not identically zero (checked at two points)."""
    n = e.shape[0]
    for s in (0.7312 + 0.1947j, -1.3 + 2.1j):
        sv = np.linalg.svd(s * e - a, compute_uv=False)
        if sv[-1] <= 1e-12 * max(sv[0], 1.0) * n:
            return False
    return True


def finite_poles(e: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Finite generalized eigenvalues of ``(A, E)``."""
    alpha, beta = scipy.linalg.eigvals(a, e, homogeneous_eigvals=True)
    # Infinite eigenvalues come back with beta at rounding level; a pole
    # beyond 1e10 rad/s is infinite for these normalized models.
    finite = np.abs(alpha) < 1e10 * np.abs(beta)
    return alpha[finite] / beta[finite]


def spectral_abscissa(e: np.ndarray, a: np.ndarray) -> float:
    """Largest real part among the finite poles (``-inf`` when there are none)."""
    poles = finite_poles(e, a)
    return float(poles.real.max()) if poles.size else float("-inf")


def certificate_margin(e, a, b, c, d) -> float:
    """Largest eigenvalue of the X = I positive-real matrix, scaled (<= 0 certifies)."""
    top = np.hstack([a + a.T, b - c.T])
    bottom = np.hstack([b.T - c, -(d + d.T)])
    lmi = np.vstack([top, bottom])
    return float(np.linalg.eigvalsh(0.5 * (lmi + lmi.T))[-1]) / _scale(a, b, c, d)


def certified_passive(e, a, b, c, d, tol: float = 1e-10) -> bool:
    """The X = I extended positive-real certificate on a regular pencil."""
    if not np.allclose(e, e.T, atol=tol * _scale(e)):
        return False
    if np.linalg.eigvalsh(0.5 * (e + e.T))[0] < -tol * _scale(e):
        return False
    return certificate_margin(e, a, b, c, d) <= tol and is_regular(e, a)


def hermitian_min(e, a, b, c, d, omega: float) -> float:
    """``lambda_min(G(jw) + G(jw)^H)`` at one frequency."""
    response = c @ np.linalg.solve(1j * omega * e - a, b) + d
    return float(np.linalg.eigvalsh(response + response.conj().T)[0])


def scan(e, a, b, c, d, omegas: Sequence[float] = SCAN_OMEGAS) -> Tuple[float, float]:
    """Minimum of :func:`hermitian_min` over ``omegas``, refined locally.

    Returns ``(value, omega)``.  The refinement is a golden-section search
    on ``log w`` between the neighbours of the best grid point.
    """
    omegas = np.asarray(omegas, dtype=float)
    values = np.array([hermitian_min(e, a, b, c, d, w) for w in omegas])
    k = int(values.argmin())
    lo = np.log(omegas[max(k - 1, 0)])
    hi = np.log(omegas[min(k + 1, omegas.size - 1)])
    best = (float(values[k]), float(omegas[k]))
    golden = 0.5 * (np.sqrt(5.0) - 1.0)
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1 = hermitian_min(e, a, b, c, d, np.exp(x1))
    f2 = hermitian_min(e, a, b, c, d, np.exp(x2))
    for _ in range(20):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = hermitian_min(e, a, b, c, d, np.exp(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = hermitian_min(e, a, b, c, d, np.exp(x2))
    for value, x in ((f1, x1), (f2, x2)):
        if value < best[0]:
            best = (float(value), float(np.exp(x)))
    return best


def witness(e, a, b, c, d, tol: float = 1e-8) -> Optional[Truth]:
    """A proof of non-passivity, or None when none is found."""
    abscissa = spectral_abscissa(e, a)
    if abscissa >= 0.0:
        return Truth(NOT_PASSIVE, f"unstable finite pole, Re = {abscissa:.3g}")
    value, omega = scan(e, a, b, c, d)
    if value < -tol * _scale(b, c, d):
        return Truth(
            NOT_PASSIVE,
            f"lambda_min(G+G^H) = {value:.3g} at w = {omega:.3g}",
            margin=value,
        )
    return None


def margin_argument(e, a, b, c, d, nominal_margin: float) -> Optional[Truth]:
    """Passive verdict for a small perturbation of a certified nominal system.

    Accepts when the system is stable, the scan finds no witness, and its
    margin lies within a tenth of the nominal system's margin — the
    perturbation then moved the frequency response by far less than the
    distance to the decision boundary.
    """
    if spectral_abscissa(e, a) >= 0.0:
        return None
    value, _ = scan(e, a, b, c, d)
    if value <= 0.0 or abs(value - nominal_margin) > 0.1 * nominal_margin:
        return None
    return Truth(
        PASSIVE,
        f"stable; scan margin {value:.3g} within 10% of the certified nominal",
        margin=value,
    )
