"""Per-mode Bloch-vector dynamics of the quenched chain.

Each positive momentum k carries a Bloch vector n_k parameterizing the 2x2
density matrix of its (k, -k) Nambu pair.  Continuous evolution integrates

    d/dt n = -2 h x n + 4*lam * h x (h x n),

with h the pseudo-magnetic field; lam >= 0 is the nondemolition
measurement strength (lam = 0 is unitary).

Every unitary evolution is a sequence of Bloch rotations, applied to all
modes at once by one batched Rodrigues kernel: at lam = 0 the continuous
quench takes closed-form fourth-order Magnus steps, and a Trotterized
quench takes one exact rotation per circuit layer.  At lam > 0 the
dephasing term makes the flow stiff and each mode is integrated by LSODA.

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
    "check_tolerance",
    "evolve_magnus",
    "trotter_step_mode",
    "run_quench",
    "integrator_stats",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

# Magnus-4 steps are sized by dt^4 = MAGNUS_STEP_SCALE * rtol * tau_q.  The
# global error on a linear quench is close to 0.6 dt^4 / tau_q for every
# tau_q in [0.5, 200] (against LSODA at rtol 1e-13), so this rule spends
# the error evenly across quench times at about 6 * rtol.
MAGNUS_STEP_SCALE = 10.0


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


def check_tolerance(key: str, value: float) -> float:
    """Return value as a float if it is a finite positive tolerance.

    Raises ValueError naming key otherwise: a zero, negative or nan
    tolerance would be clamped or ignored by the solvers and would give
    the Magnus step rule no step size.
    """
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{key} must be finite and positive, got {value}")
    return value


def _check_sample_times(p: QuenchProtocol, sample_times) -> np.ndarray:
    """Sample times as an array: non-empty, strictly increasing, and inside
    the protocol interval [t_start, t_end]."""
    times = np.asarray(sample_times, dtype=float).reshape(-1)
    if times.size == 0:
        raise ValueError("sample_times must hold at least one time")
    if not np.all(np.diff(times) > 0.0):
        raise ValueError(f"sample_times must be strictly increasing, got {times}")
    if not (p.t_start <= times[0] and times[-1] <= p.t_end):
        raise ValueError(
            f"sample_times must lie in [{p.t_start}, {p.t_end}], got {times}")
    return times


def _ground_states(p: QuenchProtocol, modes: np.ndarray) -> np.ndarray:
    """Ground-state Bloch vectors of the modes at the start of the quench,
    shape (n_modes, 3)."""
    sched = schedule_at(p, p.t_start)
    return np.array([ground_state_bloch(pseudo_field(k, sched.j, sched.h))
                     for k in modes]).reshape(-1, 3)


def _rodrigues(n: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rotate each row of n, shape (M, 3), by the rotation vector in the
    same row of w: angle |w| about w / |w|, i.e. n <- exp(K(w)) n with
    K(w) u = w x u.  A zero row of w leaves its row of n unchanged.

    Every operation is elementwise over rows, so a row's result does not
    depend on the other rows or on M.
    """
    wx, wy, wz = w[:, 0], w[:, 1], w[:, 2]
    nx, ny, nz = n[:, 0], n[:, 1], n[:, 2]
    angle = np.sqrt(wx * wx + wy * wy + wz * wz)
    inv = np.divide(1.0, angle, out=np.zeros_like(angle), where=angle > 0.0)
    ux, uy, uz = wx * inv, wy * inv, wz * inv
    c, s = np.cos(angle), np.sin(angle)
    dot = (ux * nx + uy * ny + uz * nz) * (1.0 - c)
    out = np.empty_like(n)
    out[:, 0] = nx * c + (uy * nz - uz * ny) * s + ux * dot
    out[:, 1] = ny * c + (uz * nx - ux * nz) * s + uy * dot
    out[:, 2] = nz * c + (ux * ny - uy * nx) * s + uz * dot
    return out


def _magnus_steps(p: QuenchProtocol, span: float, rtol: float) -> int:
    """Number of equal Magnus-4 steps over an interval of length span.

    Depends only on the protocol, the interval and rtol, never on the
    modes, so a mode's trajectory is the same in any ensemble.
    """
    if span == 0.0:
        return 0
    dt_max = (MAGNUS_STEP_SCALE * rtol * p.tau_q) ** 0.25
    return math.ceil(span / dt_max)


def evolve_magnus(
    p: QuenchProtocol,
    modes: Sequence[float],
    sample_times: Sequence[float],
    rtol: float = DEFAULT_RTOL,
) -> np.ndarray:
    """Unitary (lam = 0) evolution of every mode at once, from its ground
    state at t_start, sampled at the sample times.

    Returns the Bloch vectors, shape (n_samples, n_modes, 3).

    Fourth-order Magnus integrator with the two Gauss-Legendre points
    t_mid -/+ (sqrt(3)/6) dt (Blanes, Casas, Oteo & Ros, Phys. Rep. 470
    (2009)).  With A(t) = K(-2 h(t)), the step generator is

        Omega = K(w),  w = -dt (h_a + h_b) + (sqrt(3)/3) dt^2 (h_b x h_a),

    and each step is one exact rotation by w.  Because h is linear in t
    and has no x component, h_a + h_b = 2 h(t_mid) and h_b x h_a has only
    the x component (8 sqrt(3)/3) dt sin(k) / tau_q, so

        w = -2 dt h(t_mid) + (8 dt^3 / (3 tau_q)) sin(k) x-hat.

    Every interval between consecutive sample times (starting at t_start)
    is cut into _magnus_steps equal steps, so the sample times are step
    boundaries.  |n| = 1 is kept to roundoff.
    """
    rtol = check_tolerance("rtol", rtol)
    times = _check_sample_times(p, sample_times)
    modes = np.asarray(modes, dtype=float).reshape(-1)
    sin_k, cos_k = np.sin(modes), np.cos(modes)
    n = _ground_states(p, modes)
    w = np.empty_like(n)
    out = []
    t = p.t_start
    for t_next in times:
        steps = _magnus_steps(p, t_next - t, rtol)
        if steps:
            dt = (t_next - t) / steps
            edges = np.linspace(t, t_next, steps + 1)
            w[:, 0] = (8.0 * dt**3 / (3.0 * p.tau_q)) * sin_k
            for t_mid in 0.5 * (edges[:-1] + edges[1:]):
                sched = schedule_at(p, t_mid)
                w[:, 1] = (-4.0 * dt * sched.j) * sin_k
                w[:, 2] = (-4.0 * dt) * (sched.h - sched.j * cos_k)
                n = _rodrigues(n, w)
        out.append(n)
        t = t_next
    return np.stack(out)


def trotter_step_mode(n: np.ndarray, k, j: float, h: float,
                      dt: float) -> np.ndarray:
    """One Trotter step in circuit order, on one mode or on many.

    n is one Bloch vector (3,) with a scalar momentum k, or an (M, 3)
    array with (M,) momenta; the result has the shape of n.

    First the Ising sub-unitary, then the transverse-field sub-unitary.
    Each layer is the exact Bloch rotation generated by d/dt n = -2 b x n
    over dt with b the layer's pseudo-field contribution, i.e. a rotation
    by the vector -2 b dt, so |n| is preserved to roundoff.
    """
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float).reshape(-1)
    w = np.zeros((len(k), 3))
    # Ising layer: b = (0, 2j sin k, -2j cos k)
    w[:, 1] = (-4.0 * j * dt) * np.sin(k)
    w[:, 2] = (4.0 * j * dt) * np.cos(k)
    out = _rodrigues(n.reshape(-1, 3), w)
    # field layer: b = (0, 0, 2h)
    w[:, 1] = 0.0
    w[:, 2] = -4.0 * h * dt
    return _rodrigues(out, w).reshape(n.shape)


def _evolve_trotter(p: QuenchProtocol, modes: np.ndarray) -> np.ndarray:
    """Bloch vectors of all modes after every Trotter step, (steps, M, 3)."""
    n = _ground_states(p, modes)
    out = []
    for t_s in p.step_times():
        sched = schedule_at(p, t_s)
        n = trotter_step_mode(n, modes, sched.j, sched.h, p.dt)
        out.append(n)
    return np.stack(out)


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
    defined for continuous evolution only).  Continuous sample times
    default to t_end and must be strictly increasing inside the protocol
    interval.

    At lam = 0 all modes are stepped together by evolve_magnus (rtol sets
    the step size, atol is unused); Trotter steps are batched the same
    way.  At lam > 0 modes are solved one at a time by evolve_continuous,
    each with its own adaptive LSODA step sequence.  Either way a mode's
    trajectory is bit-identical whether it is solved alone or as part of
    the ensemble.
    """
    rtol = check_tolerance("rtol", rtol)
    atol = check_tolerance("atol", atol)
    grid = momentum_grid(n_sites)
    if p.evolution is Evolution.TROTTER:
        if lam != 0.0:
            raise ValueError("Trotter evolution with lam > 0 is not supported")
        if sample_times is not None:
            raise ValueError("Trotter sample times are fixed at the step boundaries")
        times = p.step_times()
        states = _evolve_trotter(p, grid.modes)
    else:
        times = _check_sample_times(
            p, [p.t_end] if sample_times is None else sample_times)
        if lam == 0.0:
            states = evolve_magnus(p, grid.modes, times, rtol=rtol)
        else:
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


def integrator_stats(p: QuenchProtocol, lam: float,
                     ensembles: Sequence[ModeEnsemble],
                     rtol: float = DEFAULT_RTOL) -> dict:
    """How run_quench produced these ensembles, for the run manifest.

    method is "trotter", "magnus4" (lam = 0) or "lsoda" (lam > 0); steps
    is the total step count of the batched paths (None for LSODA, whose
    steps are per mode); max_norm_error is the worst |(|n_k| - 1)| when
    the evolution is unitary and the worst max(|n_k| - 1, 0) otherwise,
    where |n_k| <= 1 is the invariant.
    """
    norms = np.linalg.norm(np.stack([e.states for e in ensembles]), axis=-1)
    if p.evolution is Evolution.TROTTER:
        method, steps = "trotter", p.steps
    elif lam == 0.0:
        edges = [p.t_start] + [e.t for e in ensembles]
        method = "magnus4"
        steps = sum(_magnus_steps(p, b - a, rtol)
                    for a, b in zip(edges[:-1], edges[1:]))
    else:
        method, steps = "lsoda", None
    drift = norms - 1.0 if lam == 0.0 else np.maximum(norms - 1.0, 0.0)
    return {"method": method, "steps": steps,
            "max_norm_error": float(np.abs(drift).max())}
