"""Shared scalar types: vertex roles, edge similarity states, parameters.

Roles and similarity states are stored in ``int8`` NumPy arrays across all
algorithms and execution backends, so the constants here are plain ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "UNKNOWN",
    "SIM",
    "NSIM",
    "ROLE_UNKNOWN",
    "CORE",
    "NONCORE",
    "HUB",
    "OUTLIER",
    "ScanParams",
    "role_name",
    "sim_name",
]

# Edge similarity states (Definition 2.12).
UNKNOWN: int = 0
SIM: int = 1
NSIM: int = 2

# Vertex roles (Definition 2.5).
ROLE_UNKNOWN: int = 0
CORE: int = 1
NONCORE: int = 2

# Extended peripheral classification (Definition 2.10) produced by
# ClusteringResult.classify(): non-cores inside a cluster keep NONCORE;
# unclustered vertices split into hubs and outliers.
HUB: int = 3
OUTLIER: int = 4

_ROLE_NAMES = {
    ROLE_UNKNOWN: "Unknown",
    CORE: "Core",
    NONCORE: "NonCore",
    HUB: "Hub",
    OUTLIER: "Outlier",
}
_SIM_NAMES = {UNKNOWN: "Unknown", SIM: "Sim", NSIM: "NSim"}


def role_name(role: int) -> str:
    return _ROLE_NAMES[int(role)]


def sim_name(state: int) -> str:
    return _SIM_NAMES[int(state)]


@lru_cache(maxsize=1024)
def _snap_eps(eps: float) -> Fraction:
    # Denominator cap 1000 keeps p²·(d+1)² inside int64 for the
    # vectorized threshold math while representing every practical ε
    # (0.1 steps, percent values) exactly.  Memoized: the service keys
    # every warm lookup by this fraction.
    return Fraction(eps).limit_denominator(1000)


@dataclass(frozen=True)
class ScanParams:
    """SCAN-family parameters: similarity threshold ε and core threshold µ.

    The paper requires ``0 < ε <= 1`` and ``µ >= 1``.  ``ε`` is snapped to
    an exact rational (denominator <= 10^6) so that every kernel, algorithm
    and backend computes bit-identical similarity predicates — the
    foundation of the cross-algorithm exactness tests.
    """

    eps: float
    mu: int

    def __post_init__(self) -> None:
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        if self.mu < 1 or int(self.mu) != self.mu:
            raise ValueError(f"mu must be a positive integer, got {self.mu}")
        object.__setattr__(self, "mu", int(self.mu))

    @property
    def eps_fraction(self) -> Fraction:
        return _snap_eps(self.eps)

    @property
    def point_key(self) -> tuple[int, int, int]:
        """``(numerator, denominator)`` of :attr:`eps_fraction` and µ: the
        exact identity every per-point memo keys by."""
        frac = self.eps_fraction
        return (frac.numerator, frac.denominator, self.mu)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"eps={self.eps}, mu={self.mu}"
