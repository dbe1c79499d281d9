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
(x, y) block.  There every step's 3x3 propagator is the closed-form
exponential of its Magnus exponent, a quadratic in the exponent with
coefficients from its three eigenvalues, and the propagators are
multiplied FRAME_CHUNK at a time by the same pairwise tree, so each state
is multiplied once per chunk.
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

# Largest |n_k| - 1 run_quench accepts, and largest ||n_k| - 1| at lam = 0.
NORM_TOL = 1e-9


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


# evolve_magnus_frame multiplies the step propagators of an interval
# FRAME_CHUNK at a time, counted from its first step, into one propagator
# per chunk, and applies each chunk's product to the state.  The chunk
# length is a constant, so the products a mode gets depend on the node
# count alone.
FRAME_CHUNK = 32

# Most step propagators built at once: whole chunks for a batch of modes,
# at least one chunk of one mode.  Their exponentials hold some 30 arrays of
# one float per propagator, about 2 MB for 8192 propagators.
FRAME_BATCH = 8192


def _frame_field(p: QuenchProtocol, t, modes: np.ndarray):
    """(h_y, h_z, |h|^2) of the modes at the times t, broadcast together."""
    hy, hz = pseudo_field_components(modes, 1.0 + t / p.tau_q,
                                     1.0 - t / p.tau_q)
    return hy, hz, hy * hy + hz * hz


def _frame_generators(p: QuenchProtocol, lam: float, modes: np.ndarray,
                      nodes: np.ndarray):
    """Magnus-4 exponents of the steps between consecutive nodes, as the
    parameters (g, w, f, alpha, beta) of

        Omega = [[ -g,      w,       -beta  ],
                 [ -w,     -g,     alpha - f],
                 [beta, alpha + f,     0    ]],

    each of shape (n_steps, n_modes); see evolve_magnus_frame.  With
    A = [[-g, w, 0], [-w, -g, -f], [0, f, 0]] at the two Gauss points, the
    commutator [A_2, A_1] has only the entries alpha and beta fill in.
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
    half = 0.5 * dt
    return (half * (g1 + g2), half * (w1 + w2), half * (f1 + f2),
            comm * (f1 * g2 - f2 * g1), comm * (f1 * w2 - f2 * w1))


def _frame_spectrum(g, w, f, alpha, beta):
    """Eigenvalues of the step exponents with the parameters of
    _frame_generators, as (lam1, a, b2), elementwise.

    Omega has the characteristic polynomial s^3 + 2g s^2 + (g^2 + c0) s - p0
    with c0 = w^2 + f^2 + beta^2 - alpha^2 and p0 = g (alpha^2 - f^2 -
    beta^2) + 2 w alpha beta.  lam1 is its largest real root: Cardano's
    formula for the depressed cubic in x = s + 2g/3, in trigonometric form
    where all three roots are real, then two Newton steps.  The other two
    roots are a -/+ i b with a = -g - lam1 / 2 and b2 = b^2 = c0 + g lam1
    + 3 lam1^2 / 4, written so that no g^2 cancels; they are the real pair
    a -/+ sqrt(-b2) where b2 < 0.
    """
    aa, bb, ff = alpha * alpha, beta * beta, f * f
    c0 = w * w + ff + bb - aa
    p0 = g * (aa - ff - bb) + 2.0 * w * alpha * beta
    p3 = c0 / 3.0 - g * g / 9.0  # p / 3 of x^3 + p x + q
    r = g * (g * g / 27.0 + c0 / 3.0) + 0.5 * p0  # -q / 2
    disc = r * r + p3 * p3 * p3
    u = np.cbrt(r + np.copysign(np.sqrt(np.abs(disc)), r))
    x = u - p3 / u
    three = disc < 0.0
    if three.any():
        m = np.sqrt(-p3[three])
        cos3 = np.clip(r[three] / (m * m * m), -1.0, 1.0)
        x[three] = 2.0 * m * np.cos(np.arccos(cos3) / 3.0)
    lam1 = x - (2.0 / 3.0) * g
    c1 = g * g + c0
    for _ in range(2):
        lam1 -= (((lam1 + 2.0 * g) * lam1 + c1) * lam1 - p0) \
            / ((3.0 * lam1 + 4.0 * g) * lam1 + c1)
    return lam1, -g - 0.5 * lam1, c0 + (g + 0.75 * lam1) * lam1


def _phi1(x):
    """(e^x - 1) / x elementwise, and 1 at x = 0."""
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)


def _frame_exponentials(g, w, f, alpha, beta) -> np.ndarray:
    """exp(Omega) of the step exponents with the parameters of
    _frame_generators, component-major: shape (3, 3) + g.shape.

    exp(Omega) = k0 I + k1 Omega + k2 Omega^2, where k0 + k1 s + k2 s^2
    interpolates e^s at the eigenvalues lam1 and a -/+ i b of Omega
    (_frame_spectrum; Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  With
    E0 = e^a cos b and E1 = e^a sin(b) / b,

        k2 = (e^lam1 - E0 - E1 (lam1 - a)) / ((lam1 - a)^2 + b^2),
        k1 = E1 - 2 a k2,   k0 = E0 - a E1 + (a^2 + b^2) k2.

    For a real pair E0 = e^a cosh|b| and E1 = e^a sinh|b| / |b|, and k2,
    the divided difference of e^s over lam1, a + |b| and a - |b|, is built
    from first differences, so that it stays accurate where lam1 meets
    a + |b| and no exponential overflows.  Every operation is elementwise,
    so a step's exponential does not depend on the rest of the batch.
    """
    lam1, a, b2 = _frame_spectrum(g, w, f, alpha, beta)
    real = b2 <= 0.0
    b = np.sqrt(np.where(real, 1.0, b2))  # real pairs are redone below
    e_a = np.exp(a)
    e0 = e_a * np.cos(b)
    e1 = e_a * np.sin(b) / b
    e_lam1 = np.exp(lam1)
    d = lam1 - a
    k2 = (e_lam1 - e0 - e1 * d) / (d * d + b * b)
    if real.any():
        s = np.sqrt(-b2[real])
        top = a[real] + s
        e_top = np.exp(top)
        e0[real] = 0.5 * e_top * (1.0 + np.exp(-2.0 * s))
        e1[real] = e_top * _phi1(-2.0 * s)
        k2[real] = (e_lam1[real] * _phi1(top - lam1[real]) - e1[real]) \
            / (lam1[real] - top + 2.0 * s)
    k1 = e1 - 2.0 * a * k2
    k0 = e0 - a * e1 + (a * a + b2) * k2
    # k0 I + k1 Omega + k2 Omega^2, entry by entry
    lo, hi = alpha - f, alpha + f
    out = np.empty((3, 3) + np.shape(g))
    diag = k0 - g * k1 + (g * g - w * w) * k2
    out[0, 0] = diag - beta * beta * k2
    out[1, 1] = diag + lo * hi * k2
    out[2, 2] = k0 + (lo * hi - beta * beta) * k2
    s1, s2 = k1 - g * k2, k1 - 2.0 * g * k2
    out[0, 1] = w * s2 - beta * hi * k2
    out[1, 0] = beta * lo * k2 - w * s2
    out[0, 2] = w * lo * k2 - beta * s1
    out[2, 0] = beta * s1 - w * hi * k2
    out[1, 2] = lo * s1 + w * beta * k2
    out[2, 1] = hi * s1 + w * beta * k2
    return out


def _chain(e: np.ndarray) -> np.ndarray:
    """Products of the runs of step matrices along axis 3 of e, shape
    (3, 3, R, S, ...): out[:, :, r] = e_{S-1} ... e_1 e_0 of run r, shape
    (3, 3, R, ...), by the pairwise tree of _compose."""
    while e.shape[3] > 1:
        pairs = e.shape[3] // 2
        prod = np.einsum("ij...,jk...->ik...", e[:, :, :, 1:2 * pairs:2],
                         e[:, :, :, 0:2 * pairs:2])
        e = np.concatenate([prod, e[:, :, :, 2 * pairs:]], axis=3)
    return e[:, :, :, 0]


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
    intervals = _frame_nodes(p, lam, times, density)
    per_batch = max(1, min(len(modes), FRAME_BATCH // FRAME_CHUNK))
    span = FRAME_CHUNK * max(1, FRAME_BATCH // (FRAME_CHUNK * per_batch))
    out = np.empty((len(times), len(modes), 3))
    for lo in range(0, len(modes), per_batch):
        batch = modes[lo:lo + per_batch]
        m = _ground_states(batch).T  # z-hat: h = 4 z-hat in both frames there
        for i, nodes in enumerate(intervals):
            for first in range(0, len(nodes) - 1, span):
                e = _frame_exponentials(*_frame_generators(
                    p, lam, batch, nodes[first:first + span + 1]))
                # whole chunks, then the interval's partial last chunk
                full = e.shape[2] - e.shape[2] % FRAME_CHUNK
                runs = [e[:, :, :full].reshape(3, 3, -1, FRAME_CHUNK,
                                               len(batch))]
                if full < e.shape[2]:
                    runs.append(e[:, :, None, full:])
                for run in runs:
                    for prod in np.moveaxis(_chain(run), 2, 0):
                        m = (prod[:, 0] * m[0] + prod[:, 1] * m[1]
                             + prod[:, 2] * m[2])
            hy, hz, h2 = _frame_field(p, times[i], batch)
            cos_phi, sin_phi = hz / np.sqrt(h2), hy / np.sqrt(h2)
            out[i, lo:lo + per_batch] = np.stack(
                [m[0], cos_phi * m[1] + sin_phi * m[2],
                 cos_phi * m[2] - sin_phi * m[1]], axis=1)
    return out


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
    The ODE is linear, so the step propagators do not depend on the state.
    They are built in closed form (_frame_exponentials) in batches of at
    most FRAME_BATCH, whole chunks of FRAME_CHUNK steps for a batch of
    modes; each chunk, counted from the first step of its interval, is
    multiplied in a pairwise tree (_chain), and the state is multiplied
    once per chunk.  The chunks depend on the node count alone and every
    operation is elementwise over modes, so a mode's trajectory is
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


def _check_norms(states: np.ndarray, times: np.ndarray, modes: np.ndarray,
                 lam: float) -> None:
    """Raise RuntimeError unless every Bloch vector of states, shape
    (n_samples, n_modes, 3), is finite with |n| <= 1 + NORM_TOL, and with
    ||n| - 1| <= NORM_TOL at lam = 0; see run_quench."""
    norms = np.sqrt(np.einsum("...i,...i", states, states))
    excess = np.abs(norms - 1.0) if lam == 0.0 else norms - 1.0
    if excess.max() <= NORM_TOL:  # false if any excess is nan
        return
    excess[~np.isfinite(excess)] = np.inf
    i, k = np.unravel_index(np.argmax(excess), excess.shape)
    bound = "||n| - 1|" if lam == 0.0 else "|n| - 1"
    raise RuntimeError(
        f"mode_dynamics: at t = {times[i]:g} the Bloch vector of mode "
        f"k = {modes[k]:.6g} is {states[i, k].tolist()} with |n| = "
        f"{norms[i, k]:.17g}; lam = {lam:g} needs finite states with "
        f"{bound} <= {NORM_TOL:g}")


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

    Every state is checked before it is returned: it must be finite, with
    |n_k| <= 1 + NORM_TOL, and ||n_k| - 1| <= NORM_TOL at lam = 0.  A
    state that is not raises RuntimeError naming the sample time and the
    worst mode.
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
    _check_norms(states, times, grid.modes, lam)
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
