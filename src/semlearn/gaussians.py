"""Univariate Gaussian algebra and truncated-normal moment corrections.

Beliefs are stored in natural parameters (precision = 1/variance,
precision_mean = mean/variance) so that factor products and quotients are
plain additions/subtractions. Mean and variance are exposed as properties
at the API boundary.

The moment functions return the additive mean correction ``v`` and the
multiplicative variance-reduction factor ``w`` of a unit-variance Gaussian
centered at ``t`` after conditioning on a truncation event:

    within: the raw variable stays inside [-eps, +eps]
    above:  the raw variable exceeds +eps

Posterior of the standardized variable: mean ``t + v``, variance ``1 - w``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = [
    "Gaussian1D",
    "UNINFORMATIVE",
    "multiply",
    "divide",
    "truncated_moments_within",
    "truncated_moments_above",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@functools.cache
def _special():
    """scipy.special, imported on first use: the package's one scipy import.

    Only replays evaluate ndtr and erfcx, and only the paired t-test stdtr,
    so commands that do neither do not pay for importing scipy; the cache
    keeps the per-event cost of reaching it to one call.
    """
    import scipy.special

    return scipy.special


# Below this much probability mass the truncated posterior is numerically a
# point mass at the nearest interval endpoint; we return the saturated
# corrections (v = distance to endpoint, w = 1) instead of dividing by ~0.
_MASS_FLOOR = 1e-300

# Past this standardized distance the one-sided corrections are evaluated
# with their asymptotic expansions to avoid catastrophic cancellation in
# w = v * (v - alpha).
_ASYMPTOTIC_CUTOFF = 1e5


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Gaussian1D:
    """A univariate Gaussian belief, or an uninformative message (variance=inf)."""

    precision: float
    precision_mean: float

    def __init__(self, mean: float = 0.0, variance: float = math.inf):
        if not variance > 0.0:
            raise ValueError(f"variance must be positive or +inf, got {variance}")
        _store(self, 1.0 / variance, mean / variance)

    @classmethod
    def from_natural(cls, precision: float, precision_mean: float) -> "Gaussian1D":
        return _store(cls.__new__(cls), precision, precision_mean)

    def __reduce__(self):
        # Rebuild from the natural parameters, not through the frozen __setattr__.
        return (Gaussian1D.from_natural, (self.precision, self.precision_mean))

    @property
    def mean(self) -> float:
        return self.precision_mean / self.precision if self.precision > 0.0 else 0.0

    @property
    def variance(self) -> float:
        return 1.0 / self.precision if self.precision > 0.0 else math.inf

    @property
    def is_proper(self) -> bool:
        return self.precision > 0.0

    def __repr__(self) -> str:
        if not self.is_proper:
            return "Gaussian1D(uninformative)"
        return f"Gaussian1D(mean={self.mean!r}, variance={self.variance!r})"


def _store(g: Gaussian1D, precision: float, precision_mean: float) -> Gaussian1D:
    """Set g's natural parameters: the one rule for what a belief may hold.

    A precision of 0 is the uninformative message, whose precision_mean is
    zeroed. Any other precision must be finite and positive, with a variance
    1 / precision and a mean precision_mean / precision that read back finite.
    """
    if precision == 0.0:
        precision_mean = 0.0
    elif not 0.0 < precision < math.inf:
        raise ValueError(f"precision must be 0 or finite and positive, got {precision}")
    elif not (math.isfinite(1.0 / precision) and math.isfinite(precision_mean / precision)):
        raise ValueError(
            "1 / precision and precision_mean / precision must be finite, "
            f"got precision {precision}, precision_mean {precision_mean}"
        )
    object.__setattr__(g, "precision", precision)
    object.__setattr__(g, "precision_mean", precision_mean)
    return g


UNINFORMATIVE = Gaussian1D()


def multiply(a: Gaussian1D, b: Gaussian1D) -> Gaussian1D:
    """Factor product: natural parameters add."""
    return Gaussian1D.from_natural(
        a.precision + b.precision, a.precision_mean + b.precision_mean
    )


def divide(a: Gaussian1D, b: Gaussian1D) -> Gaussian1D:
    """Factor quotient (message cavity): natural parameters subtract.

    Raises ValueError, as from_natural does, where the quotient is no storable
    belief; a negative precision signals corrupted message state.
    """
    return Gaussian1D.from_natural(
        a.precision - b.precision, a.precision_mean - b.precision_mean
    )


def truncated_moments_within(t: float, eps: float) -> tuple[float, float]:
    """Corrections for conditioning N(t, 1) on the raw value lying in [-eps, eps].

    Returns (v, w): posterior mean is t + v, posterior variance is 1 - w,
    with w in (0, 1]. Degenerate mass below 1e-300 saturates to the nearest
    endpoint (v = +-eps - t, w = 1).
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    # The problem is symmetric under t -> -t with v flipping sign.
    sign = 1.0 if t >= 0.0 else -1.0
    ta = abs(t)
    alpha = -eps - ta
    beta = eps - ta
    if math.isinf(eps):
        return 0.0, 0.0
    ndtr = _special().ndtr
    mass = float(ndtr(beta) - ndtr(alpha))
    if mass < _MASS_FLOOR:
        return sign * (eps - ta), 1.0
    pdf_alpha = _std_pdf(alpha)
    pdf_beta = _std_pdf(beta)
    v = (pdf_alpha - pdf_beta) / mass
    w = v * v + (beta * pdf_beta - alpha * pdf_alpha) / mass
    return sign * v, min(w, 1.0)


def truncated_moments_above(t: float, eps: float) -> tuple[float, float]:
    """Corrections for conditioning N(t, 1) on the raw value exceeding eps.

    Returns (v, w) with posterior mean t + v and posterior variance 1 - w.
    Computed through the scaled complementary error function, so it stays
    finite for any standardized distance; far inside the kept region it
    degrades gracefully to (0, 0).
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    alpha = eps - t
    if alpha >= _ASYMPTOTIC_CUTOFF:
        # Hazard ratio asymptotics: v ~ alpha + 1/alpha, 1 - w ~ 1/alpha^2.
        return alpha + 1.0 / alpha, 1.0 - 1.0 / (alpha * alpha)
    # erfcx(alpha/sqrt(2)) = exp(alpha^2/2) * 2 * (1 - Phi(alpha)), so the
    # hazard ratio phi(alpha)/(1 - Phi(alpha)) = sqrt(2/pi) / erfcx(...)
    # without ever forming an underflowing tail probability. Far above eps
    # erfcx overflows to inf, and (v, w) come out (0, 0).
    v = _SQRT_2_OVER_PI / float(_special().erfcx(alpha / _SQRT2))
    w = v * (v - alpha)
    return v, min(max(w, 0.0), 1.0)


def _std_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
