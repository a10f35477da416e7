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
from dataclasses import dataclass, fields
from typing import Callable, Sequence

from scipy.special import ndtr

from .data import ENGAGED, NOT_ENGAGED, EngagementEvent, LearnerModel
from .gaussians import Gaussian1D, truncated_moments_above, truncated_moments_within

Propagator = Callable[[LearnerModel, EngagementEvent], None]


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the engagement classifier.

    beta: initial (prior) skill variance for never-seen topics.
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
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.beta_perf <= 0.0:
            raise ValueError(f"beta_perf must be > 0, got {self.beta_perf}")
        if self.draw_margin_eps <= 0.0:
            raise ValueError(f"draw_margin_eps must be > 0, got {self.draw_margin_eps}")
        if self.dynamics_tau < 0.0:
            raise ValueError(f"dynamics_tau must be >= 0, got {self.dynamics_tau}")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError(
                f"decision_threshold must be in (0, 1), got {self.decision_threshold}"
            )

    @classmethod
    def from_dict(cls, values: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**values)


def _read_skills(
    model: LearnerModel, event: EngagementEvent, cfg: ModelConfig
) -> tuple[list[float], list[float], list[float]]:
    """Depths and the current skill means and variances of the event's topics.

    Unseen topics read the N(0, beta) prior, with its variance round-tripped
    through the precision exactly as a stored Gaussian1D would give it.
    """
    prior = Gaussian1D(0.0, cfg.beta)
    skills = [model.skills.get(topic_id, prior) for topic_id, _ in event.topics]
    depths = [depth for _, depth in event.topics]
    return depths, [s.mean for s in skills], [s.variance for s in skills]


def _difference_moments(
    depths: list[float], means: list[float], variances: list[float], cfg: ModelConfig
) -> tuple[float, float]:
    """Mean and variance of the performance difference D."""
    sum_d_sq = sum(d * d for d in depths)
    mean_d = sum(d * (m - cfg.depth_skill_level) for d, m in zip(depths, means))
    var_d = sum(d * d * v for d, v in zip(depths, variances)) + 2.0 * cfg.beta_perf * sum_d_sq
    return mean_d, var_d


def _engagement(mean_d: float, var_d: float, cfg: ModelConfig) -> tuple[float, int]:
    if var_d == 0.0:
        # All depths zero: D is the constant 0, inside any margin.
        p_engage = 1.0
    else:
        scale = math.sqrt(var_d)
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
    untouched.
    """
    depths, means, variances = _read_skills(model, event, cfg)
    mean_d, var_d = _difference_moments(depths, means, variances, cfg)
    outputs = _engagement(mean_d, var_d, cfg)
    if cfg.dynamics_tau > 0.0:
        tau_sq = cfg.dynamics_tau * cfg.dynamics_tau
        variances = [v + tau_sq for v in variances]
        mean_d, var_d = _difference_moments(depths, means, variances, cfg)
    if var_d == 0.0:
        # All depths zero: the outcome carries no information about skills.
        prior = Gaussian1D(0.0, cfg.beta)
        for topic_id, _ in event.topics:
            model.skills.setdefault(topic_id, prior)
    else:
        scale = math.sqrt(var_d)
        t = mean_d / scale
        margin = cfg.draw_margin_eps / scale
        if event.label == ENGAGED:
            v, w = truncated_moments_within(t, margin)
        else:
            side = 1.0 if t >= 0.0 else -1.0
            v, w = truncated_moments_above(side * t, margin)
            v *= side
        for (topic_id, _), d, mu, var in zip(event.topics, depths, means, variances):
            new_mean = mu + d * var * v / scale
            new_var = var * (1.0 - w * d * d * var / var_d)
            model.skills[topic_id] = Gaussian1D(new_mean, new_var)
    model.topics_seen.update(event.topic_ids())
    model.events_seen += 1
    return outputs


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
        outcomes.append((prediction, event.label))
    return outcomes
