"""Informed priors for unseen topics, propagated from semantically related seen ones.

When a topic first appears in a learner's session, its prior is built as a
uniformly weighted, relatedness-scaled combination of the learner's beliefs
about related topics already seen:

    mean     = sum_j (1/|O|) * g_j * mean_j
    variance = sum_j ((1/|O|) * g_j)^2 * variance_j

over the neighbor set O returned by related_seen_topics. The mixing weight
g_j is the semantic relatedness by default, or a normalized inverse
standard error so the most-observed neighbors dominate. The variance term
uses each source topic's own variance (the exact variance of the linear
combination under independence); a config switch substitutes the fixed
initial prior variance instead, for sensitivity analysis.

Propagation happens once, at a topic's first encounter; a topic with a
belief, updated or placed before the replay, is never overwritten.
Correlations among the seen topics themselves are deliberately not modeled,
so overlapping neighbors propagate overlapping information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import EngagementEvent, LearnerModel
from .gaussians import Gaussian1D
from .novel import ModelConfig
from .relatedness import METRICS, SRTable, related_seen_topics

OMEGA_SIZES = (1, 3, 5, 10, None)  # None = all related topics

MIX_SEMANTIC_RELATEDNESS = "semantic_relatedness"
MIX_INVERSE_STANDARD_ERROR = "inverse_standard_error"

VARIANCE_FROM_SOURCE = "source_skill"
VARIANCE_FROM_PRIOR = "initial_prior"


@dataclass(frozen=True)
class PropagationConfig:
    """How priors propagate: which metric, how many neighbors, which weights."""

    sr_metric: str = "w2v"
    omega_size: int | None = None  # 1, 3, 5, 10 or None (all)
    mixing_mode: str = MIX_SEMANTIC_RELATEDNESS
    variance_source: str = VARIANCE_FROM_SOURCE

    def __post_init__(self):
        if self.sr_metric not in METRICS:
            raise ValueError(
                f"sr_metric must be one of {METRICS}, got {self.sr_metric!r}"
            )
        omega = self.omega_size
        # type(), not isinstance(): 1.0 and True equal 1 but are not sizes.
        if omega is not None and (type(omega) is not int or omega not in OMEGA_SIZES):
            raise ValueError(
                f"omega_size must be one of 1, 3, 5, 10 or None, got {omega!r}"
            )
        if self.mixing_mode not in (MIX_SEMANTIC_RELATEDNESS, MIX_INVERSE_STANDARD_ERROR):
            raise ValueError(f"unknown mixing_mode {self.mixing_mode!r}")
        if self.variance_source not in (VARIANCE_FROM_SOURCE, VARIANCE_FROM_PRIOR):
            raise ValueError(f"unknown variance_source {self.variance_source!r}")


def propagate_prior(
    model: LearnerModel,
    target: int,
    table: SRTable,
    cfg: PropagationConfig,
    default_variance: float,
) -> Gaussian1D:
    """Prior belief for a never-seen topic, combined from related seen topics.

    With no related seen topics this falls back to the default
    N(0, default_variance) prior.
    """
    neighbors = related_seen_topics(table, target, model.skills.keys(), cfg.omega_size)
    if not neighbors:
        return Gaussian1D(0.0, default_variance)
    skills = model.skills
    # Pairs of (topic, mixing weight): the relatedness itself, unless weights
    # are inverse standard errors normalized to sum to 1.
    if cfg.mixing_mode == MIX_INVERSE_STANDARD_ERROR:
        inv_se = [1.0 / math.sqrt(1.0 / skills[topic].precision) for topic, _ in neighbors]
        total = 0.0
        for x in inv_se:  # a plain loop: sum() rounds differently since CPython 3.12
            total += x
        neighbors = [(topic, x / total) for (topic, _), x in zip(neighbors, inv_se)]
    from_source = cfg.variance_source == VARIANCE_FROM_SOURCE
    inv_size = 1.0 / len(neighbors)
    mean = 0.0
    variance = 0.0
    # Seen skills are proper beliefs, so their mean and variance are read
    # from the natural parameters exactly as Gaussian1D's properties do.
    for topic, weight in neighbors:
        coeff = inv_size * weight
        source = skills[topic]
        mean += coeff * (source.precision_mean / source.precision)
        variance += coeff * coeff * (1.0 / source.precision if from_source else default_variance)
    try:
        return Gaussian1D(mean, variance)
    except ValueError:
        # Relatedness so small the variance underflowed to 0, or a mean or
        # variance Gaussian1D cannot store: nothing usable propagates, keep
        # the default prior.
        return Gaussian1D(0.0, default_variance)


class SemanticPropagator:
    """Installs propagated priors for an event's unseen topics before prediction.

    Usable directly as the ``propagator`` argument of replay_session. Seen
    topics are never touched, so propagation is first-encounter only.
    """

    def __init__(self, table: SRTable, prop_cfg: PropagationConfig, base_cfg: ModelConfig):
        self.table = table
        self.prop_cfg = prop_cfg
        self.base_cfg = base_cfg

    def __call__(self, model: LearnerModel, event: EngagementEvent) -> None:
        # Every prior is computed before any is installed, so each draws only
        # on topics seen before this event.
        priors = {
            topic_id: propagate_prior(model, topic_id, self.table, self.prop_cfg, self.base_cfg.beta)
            for topic_id, _ in event.topics
            if topic_id not in model.skills
        }
        model.skills.update(priors)

