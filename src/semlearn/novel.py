"""Baseline online engagement classifier over per-topic Gaussian skills.

Each event forms a depth-weighted performance difference between the
learner's skills and a constant resource-side skill level:

    D = sum_k d_k * (s_k - depth_skill_level) + noise,

with independent N(0, beta_perf * sum_k d_k^2) performance noise on each
side. Engagement is a draw: the event outcome is "engaged" exactly when
|D| <= draw_margin_eps. Predictions integrate D's current belief over the
draw interval; updates condition the skills on the observed outcome through
the truncated-normal corrections and exact joint-Gaussian message passing.

How depth enters the likelihood (as a per-topic weight on skills and noise)
is a modeling convention of this implementation, not an externally fixed
rule; every constant in the construction is exposed in ModelConfig.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, Sequence

from .data import ENGAGED, NOT_ENGAGED, EngagementEvent, LearnerModel
from .gaussians import Gaussian1D, _special, truncated_moments_above, truncated_moments_within

Propagator = Callable[[LearnerModel, EngagementEvent], None]

# The four (prediction, label) outcomes. Every trace entry is one of these
# shared objects, so a trace held until scoring costs one list slot per event.
_OUTCOMES = {(p, l): (p, l) for p in (ENGAGED, NOT_ENGAGED) for l in (ENGAGED, NOT_ENGAGED)}

# A posterior skill variance that underflows to 0 (a near-certain update of a
# very wide prior) is stored as this tiny positive variance instead.
_VARIANCE_FLOOR = 1e-300

# Bounds that keep the arithmetic of the worst event the schema allows, 10
# topics at depth 1, finite. Skill means stay within _MEAN_BOUND (update
# changes no belief on an event whose posterior would leave it) and the level
# within MAX_DEPTH_SKILL_LEVEL, so D's mean sum_k d_k * (m_k - level) stays
# within 30/32 of the float maximum, and eps -+ that mean within 31/32.
# tau^2 at most 2^968, a quarter of the float spacing at the maximum,
# inflates any finite variance to a finite one.
_MEAN_BOUND = sys.float_info.max / 32
MAX_DEPTH_SKILL_LEVEL = sys.float_info.max / 16
MAX_DRAW_MARGIN_EPS = sys.float_info.max / 32
MAX_DYNAMICS_TAU = 2.0**484


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the engagement classifier.

    beta: skill variance of `prior`, the N(0, beta) belief of never-seen topics.
    beta_perf: per-side performance-noise variance scale.
    draw_margin_eps: half-width of the performance-difference interval read
        as "engaged".
    dynamics_tau: standard deviation of per-event skill drift; tau^2 is
        added to each participating skill's variance before an update.
    depth_skill_level: constant resource-side skill level the depth weights
        multiply.
    decision_threshold: engagement probability at or above which the
        prediction is +1.
    """

    beta: float = 0.5
    beta_perf: float = 0.5
    draw_margin_eps: float = 0.3
    dynamics_tau: float = 0.0
    depth_skill_level: float = 0.0
    decision_threshold: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            # Also catches an int too large for a float, where isfinite would overflow.
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite, got {value}")
        try:
            prior = Gaussian1D(0.0, self.beta)
        except ValueError as err:
            raise ValueError(f"beta must give a storable N(0, beta) prior: {err}") from None
        # Not a field, so asdict, equality and hashing see only the six numbers.
        object.__setattr__(self, "prior", prior)
        if self.beta_perf <= 0.0:
            raise ValueError(f"beta_perf must be > 0, got {self.beta_perf}")
        if not 0.0 < self.draw_margin_eps <= MAX_DRAW_MARGIN_EPS:
            raise ValueError(
                f"draw_margin_eps must be in (0, {MAX_DRAW_MARGIN_EPS!r}], got {self.draw_margin_eps}"
            )
        if not 0.0 <= self.dynamics_tau <= MAX_DYNAMICS_TAU:
            raise ValueError(
                f"dynamics_tau must be in [0, {MAX_DYNAMICS_TAU!r}], got {self.dynamics_tau}"
            )
        if not abs(self.depth_skill_level) <= MAX_DEPTH_SKILL_LEVEL:
            raise ValueError(
                f"depth_skill_level must be within +-{MAX_DEPTH_SKILL_LEVEL!r}, "
                f"got {self.depth_skill_level}"
            )
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError(
                f"decision_threshold must be in (0, 1), got {self.decision_threshold}"
            )

    @classmethod
    def from_dict(cls, values: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)


def _read_skills(
    model: LearnerModel, event: EngagementEvent, cfg: ModelConfig
) -> tuple[list[float], list[float], list[float]]:
    """Depths and the current skill means and variances of the event's topics.

    Unseen topics read the N(0, beta) prior cfg.prior.
    """
    skills = [model.skills.get(t, cfg.prior) for t, _ in event.topics]
    depths = [depth for _, depth in event.topics]
    return depths, [s.mean for s in skills], [s.variance for s in skills]


def _difference_moments(
    depths: list[float], means: list[float], variances: list[float], cfg: ModelConfig
) -> tuple[float, float]:
    """Mean and variance of D, summed in a loop: sum() rounds differently since Python 3.12.

    The noise term doubles beta_perf * sum d^2, not 2 * beta_perf: that overflows
    for beta_perf past half the float maximum, and inf * 0 is nan.
    """
    sum_d_sq = mean_d = var_skills = 0.0
    for d, m, v in zip(depths, means, variances):
        sum_d_sq += d * d
        mean_d += d * (m - cfg.depth_skill_level)
        var_skills += d * d * v
    return mean_d, var_skills + 2.0 * (cfg.beta_perf * sum_d_sq)


def _engagement(mean_d: float, var_d: float, cfg: ModelConfig) -> tuple[float, int]:
    if var_d == 0.0:
        # All depths zero: D is the constant 0, inside any margin.
        p_engage = 1.0
    else:
        scale = math.sqrt(var_d)
        ndtr = _special().ndtr
        p_engage = float(
            ndtr((cfg.draw_margin_eps - mean_d) / scale)
            - ndtr((-cfg.draw_margin_eps - mean_d) / scale)
        )
    prediction = ENGAGED if p_engage >= cfg.decision_threshold else NOT_ENGAGED
    return p_engage, prediction


def predict(
    model: LearnerModel, event: EngagementEvent, cfg: ModelConfig
) -> tuple[float, int]:
    """Probability of engagement and the thresholded +-1 prediction.

    Pure: never touches model state. Unseen topics resolve to the
    N(0, beta) prior.
    """
    depths, means, variances = _read_skills(model, event, cfg)
    return _engagement(*_difference_moments(depths, means, variances, cfg), cfg)


def update(
    model: LearnerModel, event: EngagementEvent, cfg: ModelConfig
) -> tuple[float, int]:
    """One predict-then-update step; returns predict's (p_engage, prediction).

    The pair is read from the beliefs before this event. The skills are then
    inflated by tau^2 and conditioned on the observed outcome, in place.
    Engaged outcomes condition on |D| <= eps; not-engaged outcomes on the
    one-sided region beyond the margin, on the side the current mean of D
    points to. Each skill receives the share of the team correction exact
    for jointly Gaussian teams. Skills of topics absent from the event are
    untouched. An event whose posterior the floats cannot hold changes no
    belief, like one whose depths are all zero.
    """
    depths, means, variances = _read_skills(model, event, cfg)
    mean_d, var_d = _difference_moments(depths, means, variances, cfg)
    outputs = _engagement(mean_d, var_d, cfg)
    if cfg.dynamics_tau > 0.0:
        tau_sq = cfg.dynamics_tau * cfg.dynamics_tau
        variances = [v + tau_sq for v in variances]
        mean_d, var_d = _difference_moments(depths, means, variances, cfg)
    posteriors = None
    if var_d > 0.0:  # else all depths are zero: the outcome carries no information
        try:
            posteriors = _posteriors(event, depths, means, variances, mean_d, var_d, cfg)
        except ValueError:
            # t or a posterior mean overflowed, or Gaussian1D cannot store a posterior.
            pass
    if posteriors is None:
        for topic_id, _ in event.topics:
            model.skills.setdefault(topic_id, cfg.prior)
    else:
        model.skills.update(posteriors)
    return outputs


def _posteriors(
    event: EngagementEvent, depths: list[float], means: list[float], variances: list[float],
    mean_d: float, var_d: float, cfg: ModelConfig,
) -> list[tuple[int, Gaussian1D]]:
    """Each event topic's posterior skill; ValueError where the floats cannot hold one."""
    scale = math.sqrt(var_d)
    t = mean_d / scale
    margin = cfg.draw_margin_eps / scale
    if event.label == ENGAGED:
        # A margin that underflows to 0 holds no mass: the saturated corrections.
        v, w = truncated_moments_within(t, margin) if margin > 0.0 else (-t, 1.0)
    else:
        side = 1.0 if t >= 0.0 else -1.0
        v, w = truncated_moments_above(side * t, margin)
        v *= side
    posteriors = []
    for i, ((topic, _), d, mu, var) in enumerate(zip(event.topics, depths, means, variances)):
        new_mean = mu + d * var * v / scale
        new_var = var * (1.0 - w * d * d * var / var_d)
        if new_var <= 0.0:
            # 1 - w*d*d*var/var_d cancels where d*d*var dominates var_d. Its equal
            # (1 - w) + w*rest/var_d sums rest = var_d - d*d*var with topic i left out.
            others = [*variances[:i], 0.0, *variances[i + 1 :]]
            rest = _difference_moments(depths, means, others, cfg)[1]
            new_var = max(var * ((1.0 - w) + w * rest / var_d), _VARIANCE_FLOOR)
        if not abs(new_mean) <= _MEAN_BOUND:
            raise ValueError(f"posterior mean {new_mean} exceeds {_MEAN_BOUND!r}")
        posteriors.append((topic, Gaussian1D(new_mean, new_var)))
    return posteriors


def replay_session(
    events: Sequence[EngagementEvent],
    cfg: ModelConfig,
    propagator: Propagator | None = None,
) -> list[tuple[int, int]]:
    """Sequentially predict-then-update over one learner's session.

    The prediction for the event at position t uses state built from events
    1..t-1 only, so labels can never leak backwards. A propagator, when
    given, may install informed priors for unseen topics before each
    prediction.
    """
    model = LearnerModel()
    outcomes: list[tuple[int, int]] = []
    for event in events:
        if propagator is not None:
            propagator(model, event)
        _, prediction = update(model, event, cfg)
        outcomes.append(_OUTCOMES[prediction, event.label])
    return outcomes
