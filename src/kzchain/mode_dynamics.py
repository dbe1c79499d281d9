"""Per-mode Bloch-vector dynamics of the quenched chain.

Each positive momentum k carries a Bloch vector n_k parameterizing the 2x2
density matrix of its (k, -k) Nambu pair.  Continuous evolution integrates

    d/dt n = -2 h x n + 4*lam * h x (h x n),

with h the pseudo-magnetic field; lam >= 0 is the nondemolition
measurement strength (lam = 0 is unitary).  Trotterized closed-system
quenches are stepped with exact Bloch rotations, one sub-rotation per
circuit layer.

A sample of the whole chain is a ModeEnsemble: one (n_modes, 3) float
array whose row i is the Bloch vector of mode grid.modes[i].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .protocol import (
    Evolution,
    MomentumGrid,
    PseudoField,
    QuenchProtocol,
    momentum_grid,
    pseudo_field,
    schedule_at,
)

__all__ = [
    "ModeEnsemble",
    "IntegrationError",
    "ground_state_bloch",
    "evolve_continuous",
    "trotter_step_mode",
    "run_quench",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


class IntegrationError(RuntimeError):
    """Raised when the per-mode ODE integration fails."""

    def __init__(self, message: str, k: float, t: float):
        super().__init__(f"{message} (k = {k}, t = {t})")
        self.k = k
        self.t = t


@dataclass(frozen=True)
class ModeEnsemble:
    """All positive-mode Bloch vectors at a single time.

    states is an (n_modes, 3) array in grid order.  j and h are the
    couplings at the sample time; they are carried along so downstream
    observables need not re-evaluate the schedule.  protocol is the quench
    that produced the ensemble (None for hand-built states).
    """

    grid: MomentumGrid
    states: np.ndarray
    t: float
    lam: float
    j: float
    h: float
    protocol: Optional[QuenchProtocol] = None

    def __post_init__(self):
        states = np.ascontiguousarray(self.states, dtype=float)
        object.__setattr__(self, "states", states)
        if states.shape != (len(self.grid), 3):
            raise ValueError(
                f"states must have shape ({len(self.grid)}, 3), one Bloch "
                f"vector per grid mode; got {states.shape}"
            )

    @property
    def n_sites(self) -> int:
        return self.grid.n_sites


def ground_state_bloch(f: PseudoField) -> np.ndarray:
    """Instantaneous-ground-state Bloch vector, n = h / |h|."""
    norm = f.norm
    if norm == 0.0:
        raise ValueError("zero pseudo-field has no ground-state direction")
    return f.as_array() / norm


def _bloch_rhs(t, n, k, tau_q, lam):
    j = 1.0 + t / tau_q
    h = 1.0 - t / tau_q
    hy = 2.0 * j * math.sin(k)
    hz = 2.0 * h - 2.0 * j * math.cos(k)
    nx, ny, nz = n
    # c = h x n with hx = 0
    cx = hy * nz - hz * ny
    cy = hz * nx
    cz = -hy * nx
    out_x = -2.0 * cx
    out_y = -2.0 * cy
    out_z = -2.0 * cz
    if lam != 0.0:
        # d = h x c
        dx = hy * cz - hz * cy
        dy = hz * cx
        dz = -hy * cx
        out_x += 4.0 * lam * dx
        out_y += 4.0 * lam * dy
        out_z += 4.0 * lam * dz
    return (out_x, out_y, out_z)


def evolve_continuous(
    p: QuenchProtocol,
    lam: float,
    k: float,
    t_from: float,
    t_to: float,
    sample_times: Sequence[float],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> np.ndarray:
    """Integrate one mode from its ground state at t_from, sampling n(t).

    Returns the Bloch vectors at the sample times, shape (n_samples, 3).

    Uses LSODA: the damping rate 4*lam*|h_k|^2 makes the system stiff at
    large lam and the solver switches to BDF there on its own.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if not (t_from < t_to):
        raise ValueError(f"need t_from < t_to, got [{t_from}, {t_to}]")
    if not (p.contains(t_from) and p.contains(t_to)):
        raise ValueError(f"[{t_from}, {t_to}] outside protocol interval")
    sched = schedule_at(p, t_from)
    n0 = ground_state_bloch(pseudo_field(k, sched.j, sched.h))
    sample_times = np.asarray(sample_times, dtype=float)
    sol = solve_ivp(
        _bloch_rhs,
        (t_from, t_to),
        n0,
        method="LSODA",
        t_eval=sample_times,
        rtol=rtol,
        atol=atol,
        args=(k, p.tau_q, lam),
    )
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}", k=k, t=t_from)
    return sol.y.T


def _rotate(n: np.ndarray, axis_x: float, axis_y: float, axis_z: float,
            angle: float) -> np.ndarray:
    """Rodrigues rotation of n about the given (unnormalized) axis."""
    norm = math.sqrt(axis_x**2 + axis_y**2 + axis_z**2)
    if norm == 0.0 or angle == 0.0:
        return np.array(n, dtype=float)
    ux, uy, uz = axis_x / norm, axis_y / norm, axis_z / norm
    c, s = math.cos(angle), math.sin(angle)
    nx, ny, nz = n
    dot = ux * nx + uy * ny + uz * nz
    cx = uy * nz - uz * ny
    cy = uz * nx - ux * nz
    cz = ux * ny - uy * nx
    return np.array([
        nx * c + cx * s + ux * dot * (1.0 - c),
        ny * c + cy * s + uy * dot * (1.0 - c),
        nz * c + cz * s + uz * dot * (1.0 - c),
    ])


def trotter_step_mode(n: np.ndarray, k: float, j: float, h: float,
                      dt: float) -> np.ndarray:
    """One Trotter step on a single mode, in circuit order.

    First the Ising sub-unitary, then the transverse-field sub-unitary.
    Each layer is the exact Bloch rotation generated by d/dt n = -2 b x n
    over dt with b the layer's pseudo-field contribution, so |n| is
    preserved to roundoff.
    """
    by = 2.0 * j * math.sin(k)
    bz = -2.0 * j * math.cos(k)
    # rotation vector omega = -2 b, angle |omega| dt
    b_norm = math.sqrt(by * by + bz * bz)
    n = _rotate(n, 0.0, -by, -bz, 2.0 * b_norm * dt)
    # field layer: b = (0, 0, 2h) -> rotation about -z by 4 h dt
    n = _rotate(n, 0.0, 0.0, -1.0, 4.0 * h * dt)
    return n


def _evolve_trotter_mode(p: QuenchProtocol, k: float) -> np.ndarray:
    """Bloch vector of one mode after every Trotter step, (steps, 3)."""
    sched0 = schedule_at(p, p.t_start)
    n = ground_state_bloch(pseudo_field(k, sched0.j, sched0.h))
    out = []
    for t_s in p.step_times():
        sched = schedule_at(p, t_s)
        n = trotter_step_mode(n, k, sched.j, sched.h, p.dt)
        out.append(n)
    return np.array(out)


def run_quench(
    p: QuenchProtocol,
    n_sites: int,
    lam: float,
    sample_times: Optional[Sequence[float]] = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> List[ModeEnsemble]:
    """Evolve every positive mode through the quench.

    Returns one ModeEnsemble per sample time.  For Trotter protocols the
    sample times are exactly the step boundaries and sample_times must be
    omitted; Trotter with lam > 0 is rejected (the decoherence channel is
    defined for continuous evolution only).

    Modes are solved one at a time, each with its own adaptive step
    sequence, so a mode's trajectory is bit-identical whether it is solved
    alone or as part of the ensemble.
    """
    grid = momentum_grid(n_sites)
    if p.evolution is Evolution.TROTTER:
        if lam != 0.0:
            raise ValueError("Trotter evolution with lam > 0 is not supported")
        if sample_times is not None:
            raise ValueError("Trotter sample times are fixed at the step boundaries")
        times = p.step_times()
        per_mode = [_evolve_trotter_mode(p, k) for k in grid.modes]
    else:
        if sample_times is None:
            times = np.array([p.t_end])
        else:
            times = np.asarray(sample_times, dtype=float)
        per_mode = [
            evolve_continuous(p, lam, k, p.t_start, p.t_end, times,
                              rtol=rtol, atol=atol)
            for k in grid.modes
        ]
    states = np.stack(per_mode, axis=1)  # (n_samples, n_modes, 3)
    ensembles = []
    for t, s in zip(times, states):
        sched = schedule_at(p, t)
        ensembles.append(
            ModeEnsemble(grid=grid, states=s, t=float(t), lam=lam,
                         j=sched.j, h=sched.h, protocol=p)
        )
    return ensembles
