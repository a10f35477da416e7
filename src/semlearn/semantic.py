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

Propagation happens once, at a topic's first encounter; after a topic has
been directly updated its belief is never overwritten. Correlations among
the seen topics themselves are deliberately not modeled, so overlapping
neighbors propagate overlapping information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

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
        if self.omega_size not in OMEGA_SIZES:
            raise ValueError(
                f"omega_size must be one of 1, 3, 5, 10 or None, got {self.omega_size!r}"
            )
        if self.mixing_mode not in (MIX_SEMANTIC_RELATEDNESS, MIX_INVERSE_STANDARD_ERROR):
            raise ValueError(f"unknown mixing_mode {self.mixing_mode!r}")
        if self.variance_source not in (VARIANCE_FROM_SOURCE, VARIANCE_FROM_PRIOR):
            raise ValueError(f"unknown variance_source {self.variance_source!r}")

    @classmethod
    def from_dict(cls, values: dict) -> "PropagationConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown propagation config keys: {sorted(unknown)}")
        if values.get("omega_size") == "all":
            values = dict(values, omega_size=None)
        return cls(**values)


def _mixing_weights(
    neighbors: Sequence[tuple[int, float]], model: LearnerModel, mode: str
) -> list[float]:
    if mode == MIX_SEMANTIC_RELATEDNESS:
        return [rho for _, rho in neighbors]
    inv_se = [1.0 / math.sqrt(model.skills[topic].variance) for topic, _ in neighbors]
    total = sum(inv_se)
    return [x / total for x in inv_se]


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
    neighbors = related_seen_topics(table, target, model.topics_seen, cfg.omega_size)
    if not neighbors:
        return Gaussian1D(0.0, default_variance)
    weights = _mixing_weights(neighbors, model, cfg.mixing_mode)
    inv_size = 1.0 / len(neighbors)
    mean = 0.0
    variance = 0.0
    for (topic, _), weight in zip(neighbors, weights):
        coeff = inv_size * weight
        source = model.skills[topic]
        mean += coeff * source.mean
        source_var = (
            source.variance if cfg.variance_source == VARIANCE_FROM_SOURCE else default_variance
        )
        variance += coeff * coeff * source_var
    if variance == 0.0:
        # Relatedness so small the combination underflowed; nothing usable
        # propagates, keep the default prior.
        return Gaussian1D(0.0, default_variance)
    return Gaussian1D(mean, variance)


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
        for topic_id in event.topic_ids():
            if topic_id in model.topics_seen:
                continue
            model.skills[topic_id] = propagate_prior(
                model, topic_id, self.table, self.prop_cfg, self.base_cfg.beta
            )

