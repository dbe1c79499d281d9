"""Per-mode Bloch-vector dynamics of the quenched chain.

Each positive momentum k carries a Bloch vector n_k parameterizing the 2x2
density matrix of its (k, -k) Nambu pair.  Continuous evolution integrates

    d/dt n = -2 h x n + 4*lam * h x (h x n),

with h the pseudo-magnetic field; lam >= 0 is the nondemolition
measurement strength (lam = 0 is unitary).  The lam term dephases each
(k, -k) pair in its own H_k: the per-mode channel -lam sum_k [H_k, [H_k,
rho]], without the cross terms [H_k, [H_k', rho]] of oracle.evolve_lindblad.
At lam > 0 a pair with |n_k| < 1 is not fermionic-Gaussian (Bravyi, Quantum
Inf. Comput. 5, 216 (2005)): m_x, n_def, the energies and C_zz(1) are exact
for the channel, but the Wick C_zz(x >= 2) and C_xx are its Wick closure,
O(1/N) from its exact value at fixed x (its N -> infinity limit).

Every continuous evolution is stepped for all modes at once with
fourth-order Magnus.  At lam = 0 every step is one closed-form Bloch
rotation that does not depend on the state, and so is every layer of a
Trotterized quench.  Both paths build the unit quaternions of all steps
and all modes at once and compose them with batched quaternion products:
evolve_magnus reduces the steps between two sample times with a pairwise
product tree, and a Trotter run, sampled after every step, takes an
inclusive prefix scan; then each state is rotated once per sample.  At
lam > 0 the dephasing makes the flow stiff; evolve_magnus_frame steps it
in each mode's adiabatic frame, where the stiff part acts only on the
(x, y) block, with 3x3 step propagators from a batched Padé exponential.
The tests check both paths against an independent reference, one LSODA
solve of all modes (scipy.integrate), so the package needs numpy only.

A sample of the whole chain is a ModeEnsemble: one (n_modes, 3) float
array whose row i is the Bloch vector of mode grid.modes[i].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .protocol import (
    Evolution,
    MomentumGrid,
    QuenchProtocol,
    momentum_grid,
    pseudo_field_components,
    schedule_at,
)

__all__ = [
    "ModeEnsemble",
    "evolve_magnus",
    "evolve_magnus_frame",
    "check_nonnegative",
    "check_sample_times",
    "run_quench",
    "integrator_stats",
]

# The relative tolerance both step rules below are written for; every
# command runs at it, and it is not a setting.
RTOL = 1e-10

# Magnus-4 steps are sized by dt^4 = MAGNUS_STEP_SCALE * RTOL * tau_q.  The
# global error on a linear quench is close to 0.6 dt^4 / tau_q for every
# tau_q in [0.5, 200] (against LSODA at rtol 1e-13), so this rule spends
# the error evenly across quench times at about 6 * RTOL.
MAGNUS_STEP_SCALE = 10.0

# Most (step, mode) rotations evolve_magnus builds at once.  An interval's
# steps are composed for a batch of modes of at most this many elements,
# so the tree's arrays and temporaries (about 90 bytes per element, some
# 11 MB) do not grow with steps x modes.
MAGNUS_BATCH = 1 << 17

# evolve_magnus_frame takes D = (FRAME_STEP_SCALE * sqrt(1 + lam tau_q +
# (tau_q / 8)^2) / RTOL)^(1/4) steps per unit of its graded time u.  Over
# lam in [1e-3, 100], tau_q in [0.5, 64] and N <= 512, the worst error
# against LSODA at rtol 1e-13 was 6e-10 at t = 0 and 2.5e-9 at interior
# sample times.  The error falls as D^-4 at t = 0 but only about as
# D^-2.5 at interior sample times once Gamma dt >> 1, so the rule is
# calibrated at RTOL rather than derived.
FRAME_STEP_SCALE = 130.0
# largest Gamma dt of the last step before a sample time; see _frame_nodes
TAIL_GAMMA_DT = 0.5


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


def check_nonnegative(key: str, value: float) -> float:
    """Return value as a float if it is finite and >= 0 (lam, a mask).

    Raises ValueError naming key otherwise: a nan or infinite lam would
    run to all-nan Bloch vectors, and a nan mask would drop every record.
    """
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{key} must be finite and >= 0, got {value}")
    return value


def check_sample_times(p: QuenchProtocol, sample_times) -> np.ndarray:
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


def _ground_states(modes: np.ndarray) -> np.ndarray:
    """Ground-state Bloch vectors of the modes at the start of the quench,
    shape (n_modes, 3).  There J = 0 and h = 2, so every mode's field is
    exactly (0, 0, 4) and its ground state is exactly z-hat."""
    n = np.zeros((len(modes), 3))
    n[:, 2] = 1.0
    return n


# Bloch rotations as unit quaternions.  Arrays are component-major: a
# quaternion array has shape (4, ...) and a rotation-vector array (3, ...),
# and every operation is elementwise over the trailing axes, so a mode's
# result does not depend on which other modes share the array.


def _quaternions(w: np.ndarray) -> np.ndarray:
    """Unit quaternions (cos(a/2), sin(a/2) w / a), a = |w|, of the
    rotation vectors w, shape (3, ...): the rotation n <- exp(K(w)) n with
    K(w) u = w x u, by angle a about w / a.  A zero vector gives 1."""
    angle = np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    half = 0.5 * angle
    scale = np.divide(np.sin(half), angle, out=np.full_like(angle, 0.5),
                      where=angle > 0.0)
    q = np.empty((4,) + angle.shape)
    q[0] = np.cos(half)
    np.multiply(w, scale, out=q[1:])
    return q


def _qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a b of quaternion arrays (4, ...), broadcast
    together: the rotation b followed by the rotation a."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.stack([a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                     a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                     a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0])


def _compose(q: np.ndarray) -> np.ndarray:
    """The rotation of all S steps of q, shape (4, S, ...), in order: the
    product q_{S-1} ... q_1 q_0, shape (4, ...).

    A pairwise tree: each round multiplies the neighbours (2i + 1, 2i), an
    odd last factor waits for the next round, and ceil(log2 S) rounds
    leave one factor.  The tree's shape depends on S alone.
    """
    while q.shape[1] > 1:
        pairs = q.shape[1] // 2
        prod = _qmul(q[:, 1:2 * pairs:2], q[:, 0:2 * pairs:2])
        q = np.concatenate([prod, q[:, 2 * pairs:]], axis=1)
    return q[:, 0]


def _scan(q: np.ndarray) -> np.ndarray:
    """Inclusive prefix products of the steps of q, shape (4, S, ...):
    out[:, s] = q_s ... q_1 q_0, the rotation after step s.

    ceil(log2 S) rounds; after the round with offset d every entry holds
    the product of the last 2d steps up to it (Hillis & Steele, Commun.
    ACM 29, 1170 (1986)).
    """
    q = q.copy()
    d = 1
    while d < q.shape[1]:
        q[:, d:] = _qmul(q[:, d:], q[:, :-d])
        d *= 2
    return q


def _rotate(q: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Rotate the vectors n, shape (..., 3), by the quaternions q, shape
    (4, ...), broadcast together.  q is normalised first, so the rounding
    a product of many factors gathered does not change |n|."""
    q = q / np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    q0, ux, uy, uz = q
    vx, vy, vz = n[..., 0], n[..., 1], n[..., 2]
    # v + q0 t + u x t with t = 2 u x v
    tx = 2.0 * (uy * vz - uz * vy)
    ty = 2.0 * (uz * vx - ux * vz)
    tz = 2.0 * (ux * vy - uy * vx)
    return np.stack([vx + q0 * tx + (uy * tz - uz * ty),
                     vy + q0 * ty + (uz * tx - ux * tz),
                     vz + q0 * tz + (ux * ty - uy * tx)], axis=-1)


def _magnus_steps(p: QuenchProtocol, span: float) -> int:
    """Number of equal Magnus-4 steps over an interval of length span.

    Depends only on the protocol and the interval, never on the modes, so
    a mode's trajectory is the same in any ensemble.
    """
    if span == 0.0:
        return 0
    dt_max = (MAGNUS_STEP_SCALE * RTOL * p.tau_q) ** 0.25
    return math.ceil(span / dt_max)


def evolve_magnus(
    p: QuenchProtocol,
    modes: Sequence[float],
    sample_times: Sequence[float],
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
    boundaries.  A step's rotation does not depend on the state, so the
    rotation vectors of an interval's steps are built for a batch of modes
    at once (_magnus_vectors, at most MAGNUS_BATCH steps x modes), turned
    into unit quaternions and multiplied in a pairwise tree (_compose);
    the state is rotated once per sample time by the normalised product.
    Every operation is elementwise over modes, so a mode's result does not
    depend on the batch it is in.  |n| = 1 is kept to roundoff.
    """
    times = check_sample_times(p, sample_times)
    modes = np.asarray(modes, dtype=float).reshape(-1)
    n = _ground_states(modes)
    out = []
    t = p.t_start
    for t_next in times:
        steps = _magnus_steps(p, t_next - t)
        if steps:
            rotated = np.empty_like(n)
            per_batch = max(1, MAGNUS_BATCH // steps)
            for lo in range(0, len(modes), per_batch):
                batch = slice(lo, lo + per_batch)
                w = _magnus_vectors(p, modes[batch], t, t_next, steps)
                rotated[batch] = _rotate(_compose(_quaternions(w)), n[batch])
            n = rotated
        out.append(n)
        t = t_next
    return np.stack(out)


def _magnus_vectors(p: QuenchProtocol, modes: np.ndarray, t: float,
                    t_next: float, steps: int) -> np.ndarray:
    """Rotation vectors w of the steps equal Magnus-4 steps from t to
    t_next (see evolve_magnus), component-major: shape (3, steps, M)."""
    dt = (t_next - t) / steps
    edges = np.linspace(t, t_next, steps + 1)
    t_mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    j, h = 1.0 + t_mid / p.tau_q, 1.0 - t_mid / p.tau_q
    sin_k, cos_k = np.sin(modes), np.cos(modes)
    w = np.empty((3, steps, len(modes)))
    w[0] = (8.0 * dt**3 / (3.0 * p.tau_q)) * sin_k
    w[1] = (-4.0 * dt * j) * sin_k
    w[2] = (-4.0 * dt) * (h - j * cos_k)
    return w


# Padé(6, 6) coefficients of exp(x): numerator sum_j b_j x^j, denominator
# sum_j b_j (-x)^j.  Matrices are scaled by 2^-s until their 1-norm is at
# most PADE_THETA, where the approximant's relative backward error is below
# the double-precision unit roundoff (Higham, SIAM J. Matrix Anal. Appl.
# 26 (2005), Table 2.3), and squared s times afterwards.
PADE_COEFFS = (1.0, 1.0 / 2, 5.0 / 44, 1.0 / 66, 1.0 / 792, 1.0 / 15840,
               1.0 / 665280)
PADE_THETA = 0.5

# Most 3x3 step propagators built at once (at least one step of every mode).
# The exponential of a batch holds about a dozen (3, 3, batch) temporaries:
# about 2 MB for 2048 matrices, on the order of the state past 2048 modes.
FRAME_BATCH = 2048


def _mm3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two component-major stacks of 3x3 matrices, each of
    shape (3, 3, B); elementwise over B."""
    return np.einsum("ijb,jkb->ikb", a, b)


def _expm3(a: np.ndarray) -> np.ndarray:
    """exp of every matrix in a component-major (3, 3, B) stack.

    Padé(6, 6) with per-matrix scaling and squaring: the denominator is
    inverted through its adjugate, and matrix b is squared s_b times by
    np.where, so every operation is elementwise over B and a matrix's
    result does not depend on the rest of the batch.
    """
    norm = np.abs(a).sum(axis=0).max(axis=0)
    s = np.maximum(np.frexp(norm / PADE_THETA)[1], 0)
    a = np.ldexp(a, -s)
    eye = np.eye(3)[:, :, None]
    a2 = _mm3(a, a)
    a4 = _mm3(a2, a2)
    a6 = _mm3(a2, a4)
    b = PADE_COEFFS
    u = _mm3(a, b[1] * eye + b[3] * a2 + b[5] * a4)
    v = b[0] * eye + b[2] * a2 + b[4] * a4 + b[6] * a6
    q, r = v - u, v + u
    adj = np.empty_like(q)
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[j, i] = q[i1, j1] * q[i2, j2] - q[i1, j2] * q[i2, j1]
    det = q[0, 0] * adj[0, 0] + q[0, 1] * adj[1, 0] + q[0, 2] * adj[2, 0]
    x = _mm3(adj, r) / det
    for i in range(int(s.max())):
        x = np.where(i < s, _mm3(x, x), x)
    return x


def _frame_field(p: QuenchProtocol, t, modes: np.ndarray):
    """(h_y, h_z, |h|^2) of the modes at the times t, broadcast together."""
    hy, hz = pseudo_field_components(modes, 1.0 + t / p.tau_q,
                                     1.0 - t / p.tau_q)
    return hy, hz, hy * hy + hz * hz


def _frame_propagators(p: QuenchProtocol, lam: float, modes: np.ndarray,
                       nodes: np.ndarray) -> np.ndarray:
    """Magnus-4 propagators of the steps between consecutive nodes, shape
    (3, 3, n_steps, n_modes); see evolve_magnus_frame.

    With A = [[-g, w, 0], [-w, -g, -f], [0, f, 0]] at the two Gauss
    points, the commutator [A_2, A_1] has only the entries that the
    alpha and beta terms below fill in.
    """
    dt = np.diff(nodes)[:, None]
    mid = 0.5 * (nodes[:-1] + nodes[1:])[:, None]
    gen = []
    for t in (mid - (math.sqrt(3.0) / 6.0) * dt,
              mid + (math.sqrt(3.0) / 6.0) * dt):
        _, _, h2 = _frame_field(p, t, modes)
        gen.append((2.0 * np.sqrt(h2), 4.0 * lam * h2,
                    8.0 * np.sin(modes) / (p.tau_q * h2)))
    (w1, g1, f1), (w2, g2, f2) = gen
    comm = (math.sqrt(3.0) / 12.0) * dt * dt
    alpha = comm * (f1 * g2 - f2 * g1)
    beta = comm * (f1 * w2 - f2 * w1)
    half = 0.5 * dt
    w, g, f = half * (w1 + w2), half * (g1 + g2), half * (f1 + f2)
    omega = np.zeros((3, 3) + w.shape)
    omega[0, 0] = omega[1, 1] = -g
    omega[0, 1], omega[1, 0] = w, -w
    omega[1, 2], omega[2, 1] = alpha - f, alpha + f
    omega[0, 2], omega[2, 0] = -beta, beta
    return _expm3(omega.reshape(3, 3, -1)).reshape(omega.shape)


def _frame_nodes(p: QuenchProtocol, lam: float, times: np.ndarray,
                 density: int) -> List[np.ndarray]:
    """Step nodes of every interval between consecutive sample times,
    starting at t_start; each array runs from one sample time to the next.

    The steps are equal in u = sign(t) sqrt(|t| / tau_q), so the nodes
    t = tau_q u |u| crowd quadratically toward t = 0, where the gap is
    smallest, from both sides for FULL_QUENCH.  An interval spanning du
    in u gets ceil(du * density) steps.

    A step with Gamma dt >> 1 lands on the quasi-static (x, y) value of
    its mean generator, not of the generator at its end, so the last step
    before a sample time is halved until Gamma_max dt <= TAIL_GAMMA_DT,
    with Gamma_max = 64 lam the largest rate on the ramp (|h| <= 4).
    """
    def u_of(t):
        return math.copysign(math.sqrt(abs(t) / p.tau_q), t)

    out = []
    t = p.t_start
    for t_next in times:
        u_a, u_b = u_of(t), u_of(t_next)
        steps = math.ceil((u_b - u_a) * density)
        u = np.linspace(u_a, u_b, steps + 1)
        nodes = p.tau_q * u * np.abs(u)
        nodes[0], nodes[-1] = t, t_next
        if steps:
            last = t_next - nodes[-2]
            stiffness = 64.0 * lam * last / TAIL_GAMMA_DT
            halvings = math.ceil(math.log2(stiffness)) if stiffness > 1 else 0
            tail = t_next - last * 0.5 ** np.arange(1, halvings + 1)
            nodes = np.concatenate([nodes[:-1], tail, [t_next]])
        out.append(nodes)
        t = t_next
    return out


def _frame_density(p: QuenchProtocol, lam: float) -> int:
    """Magnus steps per unit of u for evolve_magnus_frame: a function of
    the protocol and lam only, never of the modes."""
    tau_q = p.tau_q
    scale = FRAME_STEP_SCALE * math.sqrt(
        1.0 + lam * tau_q + (tau_q / 8.0) ** 2) / RTOL
    return math.ceil(scale ** 0.25)


def _magnus_frame(p: QuenchProtocol, lam: float, modes: np.ndarray,
                  times: np.ndarray, density: int) -> np.ndarray:
    """evolve_magnus_frame with an explicit step density."""
    per_batch = max(1, FRAME_BATCH // len(modes))
    m = _ground_states(modes).T  # z-hat: h = 4 z-hat in both frames there
    out = []
    for nodes, t_s in zip(_frame_nodes(p, lam, times, density), times):
        for lo in range(0, len(nodes) - 1, per_batch):
            props = _frame_propagators(p, lam, modes,
                                       nodes[lo:lo + per_batch + 1])
            for step in range(props.shape[2]):
                m = (props[:, 0, step] * m[0] + props[:, 1, step] * m[1]
                     + props[:, 2, step] * m[2])
        hy, hz, h2 = _frame_field(p, t_s, modes)
        cos_phi, sin_phi = hz / np.sqrt(h2), hy / np.sqrt(h2)
        out.append(np.stack([m[0], cos_phi * m[1] + sin_phi * m[2],
                             cos_phi * m[2] - sin_phi * m[1]], axis=1))
    return np.stack(out)


def evolve_magnus_frame(
    p: QuenchProtocol,
    lam: float,
    modes: Sequence[float],
    sample_times: Sequence[float],
) -> np.ndarray:
    """Dephased (lam > 0) evolution of every mode at once, from its ground
    state at t_start, sampled at the sample times.

    Returns the Bloch vectors, shape (n_samples, n_modes, 3).

    Fourth-order Magnus in the adiabatic frame (Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470 (2009)).  Each mode's frame is rotated about x by
    phi = atan2(h_y, h_z), so that h maps to |h| z-hat and the start state
    is exactly z-hat.  There m = R_x(phi) n obeys dm/dt = A m with

        A = [[-Gamma,  2|h|,    0   ],
             [-2|h|,  -Gamma, -phidot],
             [  0,     phidot,  0   ]],

    Gamma = 4 lam |h|^2 and phidot = 8 sin(k) / (tau_q |h|^2), exact
    because J + h = 2.  The stiff dephasing acts only on the (x, y) block,
    which commutes with itself at all times, so the Magnus remainder comes
    from the slow coupling phidot alone.  A step over [t, t + dt] with
    A_1, A_2 at the Gauss points t + (1/2 -/+ sqrt(3)/6) dt applies

        exp(dt/2 (A_1 + A_2) + (sqrt(3)/12) dt^2 [A_2, A_1]).

    The nodes are graded toward t = 0 (_frame_nodes) and include every
    sample time, where the state is rotated back to the lab frame.  Their
    number depends on the protocol, lam and the sample times only.
    The ODE is linear, so the step propagators do not depend on the state:
    they are built by _expm3, about FRAME_BATCH matrices (and at least one
    step of every mode) at a time, and applied one step after another.
    Every operation is elementwise over modes, so a mode's trajectory is
    bit-identical whether it is solved alone, in a subset or in the ensemble.
    """
    lam = check_nonnegative("lam", lam)
    times = check_sample_times(p, sample_times)
    modes = np.asarray(modes, dtype=float).reshape(-1)
    return _magnus_frame(p, lam, modes, times, _frame_density(p, lam))


def _trotter_quaternions(k: np.ndarray, j, h, dt: float) -> np.ndarray:
    """Quaternions of Trotter steps in circuit order, for the momenta k
    (M,) and the couplings j, h, (S, 1) arrays for S steps; shape
    (4, S, M).

    First the Ising sub-unitary, then the transverse-field sub-unitary.
    Each layer is the exact Bloch rotation generated by d/dt n = -2 b x n
    over dt with b the layer's pseudo-field contribution, i.e. a rotation
    by the vector -2 b dt, so |n| is preserved to roundoff.
    """
    # Ising layer: b = (0, 2j sin k, -2j cos k)
    ising = _quaternions(np.stack(np.broadcast_arrays(
        0.0, (-4.0 * j * dt) * np.sin(k), (4.0 * j * dt) * np.cos(k))))
    # field layer: b = (0, 0, 2h)
    field = _quaternions(np.stack(np.broadcast_arrays(0.0, 0.0,
                                                      -4.0 * h * dt)))
    return _qmul(field, ising)


def _evolve_trotter(p: QuenchProtocol, modes: np.ndarray) -> np.ndarray:
    """Bloch vectors of all modes after every Trotter step, (steps, M, 3):
    the ground states rotated by the prefix products (_scan) of the step
    quaternions, all steps at once."""
    t = p.step_times()[:, None]
    q = _trotter_quaternions(modes, 1.0 + t / p.tau_q, 1.0 - t / p.tau_q,
                             p.dt)
    return _rotate(_scan(q), _ground_states(modes))


def run_quench(
    p: QuenchProtocol,
    n_sites: int,
    lam: float,
    sample_times: Optional[Sequence[float]] = None,
) -> List[ModeEnsemble]:
    """Evolve every positive mode through the quench.

    Returns one ModeEnsemble per sample time.  For Trotter protocols the
    sample times are exactly the step boundaries and sample_times must be
    omitted; Trotter with lam > 0 is rejected (the decoherence channel is
    defined for continuous evolution only).  Continuous sample times
    default to t_end and must be strictly increasing inside the protocol
    interval.  lam must be finite and >= 0.

    All modes are stepped together: by evolve_magnus at lam = 0, by
    evolve_magnus_frame at lam > 0 (both step counts are fixed functions of
    the protocol and lam, for the tolerance RTOL), and by batched Trotter
    rotations.  Either way a mode's trajectory is
    bit-identical whether it is solved alone or as part of the ensemble.
    """
    lam = check_nonnegative("lam", lam)
    grid = momentum_grid(n_sites)
    if p.evolution is Evolution.TROTTER:
        if lam != 0.0:
            raise ValueError("Trotter evolution with lam > 0 is not supported")
        if sample_times is not None:
            raise ValueError("Trotter sample times are fixed at the step boundaries")
        times = p.step_times()
        states = _evolve_trotter(p, grid.modes)
    else:
        times = check_sample_times(
            p, [p.t_end] if sample_times is None else sample_times)
        if lam == 0.0:
            states = evolve_magnus(p, grid.modes, times)
        else:
            states = evolve_magnus_frame(p, lam, grid.modes, times)
    ensembles = []
    for t, s in zip(times, states):
        sched = schedule_at(p, t)
        ensembles.append(
            ModeEnsemble(grid=grid, states=s, t=float(t), lam=lam,
                         j=sched.j, h=sched.h, protocol=p)
        )
    return ensembles


def integrator_stats(p: QuenchProtocol, lam: float,
                     ensembles: Sequence[ModeEnsemble]) -> dict:
    """How run_quench produced these ensembles, for the run manifest.

    method is "trotter", "magnus4" (lam = 0) or "magnus4_frame" (lam > 0);
    steps is the total step count; max_norm_error is the worst
    |(|n_k| - 1)| when the evolution is unitary and the worst
    max(|n_k| - 1, 0) otherwise, where |n_k| <= 1 is the invariant.
    """
    norms = np.linalg.norm(np.stack([e.states for e in ensembles]), axis=-1)
    times = np.array([e.t for e in ensembles])
    if p.evolution is Evolution.TROTTER:
        method, steps = "trotter", p.steps
    elif lam == 0.0:
        edges = [p.t_start, *times]
        method = "magnus4"
        steps = sum(_magnus_steps(p, b - a)
                    for a, b in zip(edges[:-1], edges[1:]))
    else:
        method = "magnus4_frame"
        nodes = _frame_nodes(p, lam, times, _frame_density(p, lam))
        steps = sum(len(x) - 1 for x in nodes)
    drift = norms - 1.0 if lam == 0.0 else np.maximum(norms - 1.0, 0.0)
    return {"method": method, "steps": steps,
            "max_norm_error": float(np.abs(drift).max())}
