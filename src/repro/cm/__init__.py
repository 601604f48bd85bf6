"""Contention management policies (system S6 in DESIGN.md).

The paper's contribution is the *gating-aware* staircase policy of
Eq. (8); the baselines here exist for the ablation benchmarks (the
paper argues plain exponential polite back-off "does incur significant
performance penalty for highly contentious applications").
"""

from .base import ContentionManager
from .gating_aware import GatingAwareCM, staircase_term
from .backoff import ImmediateCM, LinearBackoffCM, ExponentialBackoffCM, PoliteBackoffCM
from .momentum import MomentumCM
from .registry import create_cm, available_cms, policy_class, register_cm

__all__ = [
    "ContentionManager",
    "GatingAwareCM",
    "staircase_term",
    "ImmediateCM",
    "LinearBackoffCM",
    "ExponentialBackoffCM",
    "PoliteBackoffCM",
    "MomentumCM",
    "create_cm",
    "available_cms",
    "register_cm",
    "policy_class",
]
