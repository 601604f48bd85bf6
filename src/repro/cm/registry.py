"""Name-based contention-manager construction.

The :class:`~repro.config.GatingConfig` names its policy; the machine
resolves it here.  Third-party policies can be added with
:func:`register_cm` (they must subclass
:class:`~repro.cm.base.ContentionManager`).

:func:`policy_class` answers class-level questions about a named policy
(such as :attr:`~repro.cm.base.ContentionManager.ungated_w0_independent`,
which every job digest reads) from the registered class, without
building a policy.
"""

from __future__ import annotations

from typing import Callable

from ..config import GatingConfig
from ..errors import ConfigError
from .backoff import ExponentialBackoffCM, ImmediateCM, LinearBackoffCM, PoliteBackoffCM
from .base import ContentionManager
from .gating_aware import GatingAwareCM
from .momentum import MomentumCM

__all__ = ["create_cm", "available_cms", "register_cm", "policy_class"]

_FACTORIES: dict[str, Callable[[GatingConfig, int], ContentionManager]] = {
    "gating-aware": lambda g, seed: GatingAwareCM(w0=g.w0),
    "immediate": lambda g, seed: ImmediateCM(w0=g.w0),
    "linear": lambda g, seed: LinearBackoffCM(step=max(1, g.w0)),
    "exponential": lambda g, seed: ExponentialBackoffCM(base=max(1, g.w0)),
    "polite": lambda g, seed: PoliteBackoffCM(base=max(1, g.w0), seed=seed),
    "momentum": lambda g, seed: MomentumCM(w0=g.w0),
}

#: the class each built-in factory builds
_CLASSES: dict[str, type[ContentionManager]] = {
    "gating-aware": GatingAwareCM,
    "immediate": ImmediateCM,
    "linear": LinearBackoffCM,
    "exponential": ExponentialBackoffCM,
    "polite": PoliteBackoffCM,
    "momentum": MomentumCM,
}


def available_cms() -> list[str]:
    """Registered policy names."""
    return sorted(_FACTORIES)


def register_cm(
    name: str, factory: Callable[[GatingConfig, int], ContentionManager]
) -> None:
    """Register a custom policy under ``name`` (overwrites allowed)."""
    if not name:
        raise ConfigError("policy name must be non-empty")
    _FACTORIES[name] = factory
    _CLASSES.pop(name, None)  # a custom factory's class is learnt by building


def create_cm(gating: GatingConfig, seed: int = 0) -> ContentionManager:
    """Instantiate the policy named by ``gating.contention_manager``."""
    try:
        factory = _FACTORIES[gating.contention_manager]
    except KeyError:
        raise ConfigError(
            f"unknown contention manager {gating.contention_manager!r}; "
            f"available: {', '.join(available_cms())}"
        ) from None
    cm = factory(gating, seed)
    if not isinstance(cm, ContentionManager):
        raise ConfigError(
            f"factory for {gating.contention_manager!r} returned "
            f"{type(cm).__name__}, not a ContentionManager"
        )
    return cm


def policy_class(
    gating: GatingConfig, seed: int = 0
) -> type[ContentionManager]:
    """The class of the policy named by ``gating.contention_manager``.

    Built-in policies answer from the registry; a custom factory is
    asked by building one policy.  Raises the same
    :class:`~repro.errors.ConfigError` as :func:`create_cm` for an
    unknown name or a broken factory.
    """
    cls = _CLASSES.get(gating.contention_manager)
    if cls is not None:
        return cls
    return type(create_cm(gating, seed))
