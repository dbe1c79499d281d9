"""Quench schedules, momentum grid, and per-mode pseudo-magnetic field.

The chain is ramped linearly, J(t) = 1 + t/tau_q and h(t) = 1 - t/tau_q,
either up to the critical point (t in [-tau_q, 0]) or through it into the
ferromagnet (t in [-tau_q, +tau_q]).  Units: hbar = J(0) = 1.

In the even-fermion-parity sector the Jordan-Wigner fermions obey
antiperiodic boundary conditions, so the momenta are half-integer
multiples of 2*pi/N; only the N/2 positive modes are kept, each standing
for a (k, -k) Nambu pair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Variant",
    "Evolution",
    "QuenchProtocol",
    "MomentumGrid",
    "Schedule",
    "schedule_at",
    "trotter_protocol",
    "momentum_grid",
    "pseudo_field_components",
]


class Variant(enum.Enum):
    """Quench target: stop at the critical point or cross into the ferromagnet."""

    TO_CRITICAL_POINT = "to_critical_point"
    FULL_QUENCH = "full_quench"


class Evolution(enum.Enum):
    CONTINUOUS = "continuous"
    TROTTER = "trotter"


@dataclass(frozen=True)
class QuenchProtocol:
    """A linear quench schedule.

    Parameters
    ----------
    tau_q : float
        Characteristic quench time, finite and > 0.
    variant : Variant
        Protocol interval: [-tau_q, 0] or [-tau_q, +tau_q].
    evolution : Evolution
        Continuous integration or Trotterized stepping.
    dt : float, optional
        Trotter step duration, finite and > 0 (Trotter only).
    steps : int, optional
        Number of Trotter steps (Trotter only); steps * dt must equal the
        total protocol duration.
    """

    tau_q: float
    variant: Variant = Variant.TO_CRITICAL_POINT
    evolution: Evolution = Evolution.CONTINUOUS
    dt: Optional[float] = None
    steps: Optional[int] = None

    def __post_init__(self):
        if not (math.isfinite(self.tau_q) and self.tau_q > 0):
            raise ValueError(f"tau_q must be finite and positive, got {self.tau_q}")
        if self.evolution is Evolution.TROTTER:
            if self.dt is None or self.steps is None:
                raise ValueError("Trotter protocol requires dt and steps")
            if not (math.isfinite(self.dt) and self.dt > 0):
                raise ValueError(f"dt must be finite and positive, got {self.dt}")
            if not (isinstance(self.steps, int) and self.steps > 0):
                raise ValueError(f"steps must be a positive integer, got {self.steps}")
            if not math.isclose(self.steps * self.dt, self.duration,
                                rel_tol=1e-12, abs_tol=1e-12):
                raise ValueError(
                    f"steps*dt = {self.steps * self.dt} does not match the "
                    f"protocol duration {self.duration}"
                )
        elif self.dt is not None or self.steps is not None:
            raise ValueError("dt/steps only apply to Trotter protocols")

    @property
    def t_start(self) -> float:
        return -self.tau_q

    @property
    def t_end(self) -> float:
        return 0.0 if self.variant is Variant.TO_CRITICAL_POINT else self.tau_q

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def step_times(self) -> np.ndarray:
        """Endpoint-of-step evaluation times t_s = t_start + s*dt, s = 1..steps."""
        if self.evolution is not Evolution.TROTTER:
            raise ValueError("step_times only defined for Trotter protocols")
        s = np.arange(1, self.steps + 1)
        return self.t_start + s * self.dt

    def contains(self, t: float, slack: float = 1e-12) -> bool:
        return self.t_start - slack <= t <= self.t_end + slack


def trotter_protocol(dt: float, steps: int,
                     variant: Variant = Variant.TO_CRITICAL_POINT) -> QuenchProtocol:
    """The Trotter quench of `steps` steps of length dt.  Its duration
    steps * dt is tau_q up to the critical point and 2 tau_q through it."""
    duration = steps * dt
    tau_q = duration if variant is Variant.TO_CRITICAL_POINT else duration / 2.0
    return QuenchProtocol(tau_q=tau_q, variant=variant,
                          evolution=Evolution.TROTTER, dt=dt, steps=steps)


@dataclass(frozen=True)
class Schedule:
    """Couplings at a single time."""

    j: float
    h: float


@dataclass(frozen=True)
class MomentumGrid:
    """Positive momenta of the antiperiodic (even-parity) sector."""

    n_sites: int
    modes: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.modes)


def schedule_at(p: QuenchProtocol, t: float) -> Schedule:
    """Evaluate the couplings J and h at time t.

    Raises ValueError if t lies outside the protocol interval.
    """
    if not p.contains(t):
        raise ValueError(
            f"t = {t} outside protocol interval [{p.t_start}, {p.t_end}]"
        )
    j = 1.0 + t / p.tau_q
    h = 1.0 - t / p.tau_q
    return Schedule(j=j, h=h)


def momentum_grid(n_sites: int) -> MomentumGrid:
    """Positive half-integer momenta k_n = (2*pi/N)(n + 1/2), n = 0..N/2-1."""
    if n_sites < 2 or n_sites % 2 != 0:
        raise ValueError(f"n_sites must be even and >= 2, got {n_sites}")
    n = np.arange(n_sites // 2)
    modes = (2.0 * np.pi / n_sites) * (n + 0.5)
    return MomentumGrid(n_sites=n_sites, modes=modes)


def pseudo_field_components(k: np.ndarray, j: float, h: float):
    """(h_y, h_z) of the Nambu-space field h_k = (0, 2J sin k, 2h - 2J cos k)
    over an array of momenta; h_x is identically zero."""
    return 2.0 * j * np.sin(k), 2.0 * h - 2.0 * j * np.cos(k)
