import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import kzchain.mode_dynamics
from kzchain.mode_dynamics import (FRAME_CHUNK, RTOL, ModeEnsemble,
                                   evolve_magnus, evolve_magnus_frame,
                                   integrator_stats, run_quench,
                                   _compose, _evolve_trotter,
                                   _frame_density, _frame_exponentials,
                                   _frame_generators, _frame_nodes,
                                   _frame_spectrum, _ground_states,
                                   _magnus_frame, _magnus_steps,
                                   _magnus_vectors, _quaternions, _rotate,
                                   _scan)
from kzchain.observables import residual_energy
from kzchain.protocol import (Evolution, QuenchProtocol, Variant, momentum_grid,
                              schedule_at, trotter_protocol)

from conftest import ground_state_ensemble, ground_states


class TestGroundState:
    def test_initial_state_points_up(self):
        # at t = -tau_q the field is (0, 0, 4), so every mode starts at z-hat
        p = QuenchProtocol(tau_q=3.0)
        sched = schedule_at(p, p.t_start)
        modes = momentum_grid(16).modes
        np.testing.assert_array_equal(_ground_states(modes),
                                      ground_states(modes, sched.j, sched.h))

    @given(st.sampled_from([4, 16, 64]), st.floats(0.0, 2.0))
    def test_unit_norm(self, n, j):
        # ground states along the ramp J + h = 2: unit Bloch vectors with
        # no energy above the instantaneous ground state
        e = ground_state_ensemble(n, j, 2.0 - j)
        np.testing.assert_allclose(np.linalg.norm(e.states, axis=1), 1.0,
                                   rtol=0, atol=1e-12)
        assert residual_energy(e) == pytest.approx(0.0, abs=1e-12)


def evolve_continuous(p, lam, modes, sample_times, rtol=RTOL, atol=1e-12):
    """Reference evolution of every mode at once, from its ground state at
    t_start, sampled at the sample times.

    Returns the Bloch vectors, shape (n_samples, n_modes, 3).

    One LSODA solve (Petzold, SIAM J. Sci. Stat. Comput. 4, 136 (1983))
    of the 3M-dimensional system from t_start to the last sample time: the
    damping rate 4*lam*|h_k|^2 makes it stiff at large lam, and the solver
    switches to BDF there on its own.  The state is mode-major, [x, y, z]
    of mode 0, then of mode 1, and so on, so the Jacobian is
    block-diagonal with 3x3 blocks and a band of width 2 on either side
    holds it; LSODA builds it by finite differences.  Error-controlled
    Adams/BDF shares nothing with the Magnus paths it is tested against.
    """
    times = np.asarray(sample_times, dtype=float)
    modes = np.asarray(modes, dtype=float).reshape(-1)
    n0 = _ground_states(modes)
    if times[-1] == p.t_start:
        # solve_ivp returns no state on a zero-length span
        return n0[None]
    sin_k, cos_k = np.sin(modes), np.cos(modes)

    def rhs(t, y):
        # dn/dt = -2 c + 4 lam h x c with c = h x n and h_x = 0
        j, h = 1.0 + t / p.tau_q, 1.0 - t / p.tau_q
        hy, hz = (2.0 * j) * sin_k, 2.0 * h - (2.0 * j) * cos_k
        nx, ny, nz = y.reshape(-1, 3).T
        cx, cy, cz = hy * nz - hz * ny, hz * nx, -hy * nx
        out = np.empty_like(n0)
        out[:, 0] = (4.0 * lam) * (hy * cz - hz * cy) - 2.0 * cx
        out[:, 1] = (4.0 * lam) * (hz * cx) - 2.0 * cy
        out[:, 2] = (-4.0 * lam) * (hy * cx) - 2.0 * cz
        return out.reshape(-1)

    sol = solve_ivp(rhs, (p.t_start, times[-1]), n0.reshape(-1),
                    method="LSODA", t_eval=times, rtol=rtol, atol=atol,
                    lband=2, uband=2)
    if not sol.success:
        raise RuntimeError(f"LSODA reference integration failed: {sol.message}")
    return sol.y.T.reshape(len(times), len(modes), 3)


def _lsoda_reference(p, modes, times, lam=0.0):
    """One LSODA solve over all modes at tight tolerances, shape
    (n_samples, n_modes, 3)."""
    return evolve_continuous(p, lam, modes, times, rtol=1e-13, atol=1e-15)


class TestContinuousEvolution:
    def test_adiabatic_limit_follows_ground_state(self):
        # slow quench on a gapped mode: n(t) stays close to h(t)/|h(t)|
        p = QuenchProtocol(tau_q=200.0)
        k = 2.0  # large gap
        n = evolve_continuous(p, 0.0, [k], [0.0])[0, 0]
        (target,) = ground_states([k], 1.0, 1.0)
        assert np.linalg.norm(n - target) < 1e-2

    def test_sudden_limit_freezes(self):
        # fast quench: n barely moves from its initial z-hat
        p = QuenchProtocol(tau_q=1e-3)
        n = evolve_continuous(p, 0.0, [0.3], [0.0])[0, 0]
        assert n[2] > 0.999

    def test_sample_at_start_is_ground_state(self):
        # a sample at t_start alone spans no time, and the solver is skipped
        p = QuenchProtocol(tau_q=1.0)
        (start,) = evolve_continuous(p, 0.3, [0.5, 2.0], [p.t_start])
        np.testing.assert_array_equal(start, [[0.0, 0.0, 1.0]] * 2)
        both = evolve_continuous(p, 0.3, [0.5, 2.0], [p.t_start, 0.0])
        np.testing.assert_allclose(both[0], start, rtol=0, atol=1e-15)

    def test_norm_preserved_when_unitary(self):
        p = QuenchProtocol(tau_q=2.0)
        (states,) = evolve_continuous(p, 0.0, momentum_grid(16).modes, [0.0])
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0,
                                   rtol=0, atol=1e-8)

    def test_decoherence_shrinks_norm(self):
        p = QuenchProtocol(tau_q=4.0)
        k = momentum_grid(64).modes[:1]
        unitary = evolve_continuous(p, 0.0, k, [0.0])[0, 0]
        damped = evolve_continuous(p, 1.0, k, [0.0])[0, 0]
        assert np.linalg.norm(damped) < np.linalg.norm(unitary) - 1e-3

    def test_landau_zener_excitation(self):
        """Small-k modes obey the Landau-Zener formula at the QCP crossing.

        Near k = 0 the mode reduces to a two-level sweep with minimum gap
        4k and diabatic splitting rate 8/tau_q (both couplings ramp, so the
        distance from criticality closes at twice the single-ramp rate),
        giving excitation probability p_k = exp(-pi*tau_q*k^2); 1 - 2 p_k
        is the projection of n on the final ground state.
        """
        tau_q = 4.0
        p = QuenchProtocol(tau_q=tau_q, variant=Variant.FULL_QUENCH)
        modes = [0.05, 0.1, 0.2]
        (states,) = evolve_continuous(p, 0.0, modes, [tau_q])
        sched = schedule_at(p, tau_q)
        targets = ground_states(modes, sched.j, sched.h)
        for k, n, target in zip(modes, states, targets):
            p_exc = 0.5 * (1.0 - float(np.dot(n, target)))
            p_lz = math.exp(-math.pi * tau_q * k * k)
            assert p_exc == pytest.approx(p_lz, abs=0.01)


class TestMagnus:
    @given(st.sampled_from([8, 16, 64]), st.floats(0.5, 16.0),
           st.sampled_from(list(Variant)),
           st.one_of(st.none(), st.floats(0.1, 0.9)))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_matches_tight_lsoda(self, n_sites, tau_q, variant, frac):
        """At RTOL the batched unitary evolution lies within 5e-9 of
        LSODA run at rtol 1e-13, at one or two sample times."""
        p = QuenchProtocol(tau_q=tau_q, variant=variant)
        times = [p.t_end] if frac is None else \
            [p.t_start + frac * p.duration, p.t_end]
        ensembles = run_quench(p, n_sites, lam=0.0, sample_times=times)
        batched = np.stack([e.states for e in ensembles])
        ref = _lsoda_reference(p, ensembles[0].grid.modes, times)
        assert np.abs(batched - ref).max() < 5e-9

    def test_fourth_order_convergence(self, monkeypatch):
        """Halving the step cuts the error by about 2^4.  MAGNUS_STEP_SCALE
        is scaled so that the rule dt^4 = MAGNUS_STEP_SCALE * RTOL * tau_q
        gives the step of a tolerance of 1e-6, then of 1e-6 / 16."""
        p = QuenchProtocol(tau_q=2.0, variant=Variant.FULL_QUENCH)
        modes = momentum_grid(16).modes
        ref = _lsoda_reference(p, modes, [p.t_end])
        errors, steps = [], []
        for tol in (1e-6, 1e-6 / 16):
            monkeypatch.setattr(kzchain.mode_dynamics, "MAGNUS_STEP_SCALE",
                                10.0 * tol / RTOL)
            ensembles = run_quench(p, 16, lam=0.0)
            errors.append(np.abs(ensembles[0].states - ref[0]).max())
            steps.append(integrator_stats(p, 0.0, ensembles)["steps"])
        assert steps[1] == 2 * steps[0]
        assert errors[0] / errors[1] >= 12.0

    def test_mode_independence(self, monkeypatch):
        # bit-identical solved alone, in a subset, in the ensemble, or
        # composed in batches of modes of any size
        p = QuenchProtocol(tau_q=1.5, variant=Variant.FULL_QUENCH)
        times = [0.0, 1.5]
        ensembles = run_quench(p, 12, lam=0.0, sample_times=times)
        states = np.stack([e.states for e in ensembles])
        modes = ensembles[0].grid.modes
        alone = evolve_magnus(p, modes[2:3], times)
        np.testing.assert_array_equal(states[:, 2:3], alone)
        subset = evolve_magnus(p, modes[1::2], times)
        np.testing.assert_array_equal(states[:, 1::2], subset)
        # both intervals span 1.5, so they take the same number of steps
        steps = _magnus_steps(p, 1.5)
        assert steps * len(modes) <= kzchain.mode_dynamics.MAGNUS_BATCH
        for per_batch in (1, 4):
            monkeypatch.setattr(kzchain.mode_dynamics, "MAGNUS_BATCH",
                                per_batch * steps)
            np.testing.assert_array_equal(states, evolve_magnus(p, modes, times))

    def test_landau_zener_through_run_quench(self):
        """The grid's small-k modes obey p_k = exp(-pi tau_q k^2); see
        TestContinuousEvolution.test_landau_zener_excitation."""
        tau_q = 4.0
        p = QuenchProtocol(tau_q=tau_q, variant=Variant.FULL_QUENCH)
        e = run_quench(p, 128, lam=0.0)[-1]
        small = e.grid.modes < 0.2
        assert small.sum() == 4
        targets = ground_states(e.grid.modes[small], e.j, e.h)
        for k, n, target in zip(e.grid.modes[small], e.states[small], targets):
            p_exc = 0.5 * (1.0 - float(np.dot(n, target)))
            assert p_exc == pytest.approx(math.exp(-math.pi * tau_q * k * k),
                                          abs=0.01)


class TestMagnusFrame:
    @given(st.sampled_from([8, 16, 64]),
           st.floats(0.0, 100.0, exclude_min=True),
           st.floats(0.5, 64.0), st.sampled_from(list(Variant)),
           st.one_of(st.none(), st.floats(0.1, 0.9)))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_matches_tight_lsoda(self, n_sites, lam, tau_q, variant, frac):
        """At RTOL the batched dephased evolution lies within 5e-9 of
        LSODA run at rtol 1e-13, at one or two sample times."""
        p = QuenchProtocol(tau_q=tau_q, variant=variant)
        times = [p.t_end] if frac is None else \
            [p.t_start + frac * p.duration, p.t_end]
        ensembles = run_quench(p, n_sites, lam=lam, sample_times=times)
        batched = np.stack([e.states for e in ensembles])
        ref = _lsoda_reference(p, ensembles[0].grid.modes, times, lam=lam)
        assert np.abs(batched - ref).max() < 5e-9

    def test_strong_measurement_sweep_point(self):
        """The N = 192, lam = 100 case of the QND benchmark sweep."""
        p = QuenchProtocol(tau_q=16.0)
        (e,) = run_quench(p, 192, lam=100.0, sample_times=[0.0])
        ref = _lsoda_reference(p, e.grid.modes, [0.0], lam=100.0)
        assert np.abs(e.states - ref[0]).max() < 5e-9

    def test_fourth_order_convergence(self):
        """Doubling the step density cuts the error at t = 0 by about 2^4,
        also where the dephasing is stiff (lam = 100, where Gamma dt
        reaches about 1000 at density 50)."""
        p = QuenchProtocol(tau_q=4.0)
        modes = momentum_grid(16).modes
        times = np.array([0.0])
        for lam in (1.0, 100.0):
            ref = _lsoda_reference(p, modes, times, lam=lam)
            errors = [np.abs(_magnus_frame(p, lam, modes, times, density)
                             - ref).max() for density in (50, 100)]
            assert errors[0] / errors[1] >= 12.0

    @pytest.mark.parametrize("n_sites, tau_q, steps", [
        (192, 3.696, 2237), (192, 8.533, 2484), (192, 12.599, 2608),
        (192, 15.171, 2669), (512, 64.0, 3198)])
    def test_step_counts_pinned(self, n_sites, tau_q, steps):
        """The lam = 100 step counts of the QND benchmark sweep and of the
        N = 512 quench, sampled at t = 0: a faster step kernel must not
        take fewer steps."""
        p = QuenchProtocol(tau_q=tau_q)
        ensembles = run_quench(p, n_sites, lam=100.0, sample_times=[0.0])
        assert integrator_stats(p, 100.0, ensembles)["steps"] == steps


def _omega(g, w, f, alpha, beta):
    """The step exponents of _frame_generators as explicit matrices, shape
    g.shape + (3, 3)."""
    g, w, f, alpha, beta = np.broadcast_arrays(g, w, f, alpha, beta)
    zero = np.zeros_like(g)
    return np.stack([np.stack([-g, w, -beta], axis=-1),
                     np.stack([-w, -g, alpha - f], axis=-1),
                     np.stack([beta, alpha + f, zero], axis=-1)], axis=-2)


def _expm_errors(params):
    """Per step, the largest entry of |_frame_exponentials - expm| over
    max(1, ||Omega||_1), and the two results, shape (..., 3, 3)."""
    got = np.moveaxis(_frame_exponentials(*params), (0, 1), (-2, -1))
    omega = _omega(*params)
    ref = expm(omega.reshape(-1, 3, 3)).reshape(omega.shape)
    scale = np.maximum(1.0, np.abs(omega).sum(axis=-2).max(axis=-1))
    return np.abs(got - ref).max(axis=(-2, -1)) / scale, got, ref


class TestFrameExponential:
    """The closed-form step exponential against scipy.linalg.expm.

    The bound is relative to max(1, ||Omega||_1), the scale of expm's own
    error: on the lam = 1e4 mesh expm is 6.8e-13 from 40-digit mpmath
    where ||Omega||_1 is about 1.2e4, and 1.2e-14 at ||Omega||_1 = 4.2 on
    the lam = 100 meshes, while _frame_exponentials is within 4.5e-16.
    """

    @pytest.mark.parametrize("n_sites, lam, tau_q, stride", [
        (16, 1e-3, 0.5, 1), (192, 1.0, 12.6, 8), (192, 100.0, 12.6, 8),
        (512, 1e4, 64.0, 32)])
    def test_every_step_of_the_mesh(self, n_sites, lam, tau_q, stride):
        """Every step of the mesh of a quench sampled at t = 0, for every
        stride-th mode from the smallest k."""
        p = QuenchProtocol(tau_q=tau_q)
        (nodes,) = _frame_nodes(p, lam, np.array([0.0]),
                                _frame_density(p, lam))
        modes = momentum_grid(n_sites).modes[::stride]
        params = _frame_generators(p, lam, modes, nodes)
        errors, got, _ = _expm_errors(params)
        assert errors.max() <= 1e-14
        # the strongly dephased meshes hold steps with three real roots
        _, _, b2 = _frame_spectrum(*params)
        assert (b2 < 0.0).any() == (lam >= 100.0)
        # the steps farthest from expm, and the stiffest step, where an
        # unpolished root costs most, against 40-digit mpmath
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        norms = np.abs(_omega(*params)).sum(axis=-2).max(axis=-1)
        for step in [*np.argsort(errors, axis=None)[-3:], norms.argmax()]:
            i = np.unravel_index(step, errors.shape)
            omega = _omega(*(x[i] for x in params))
            exact = mpmath.expm(mpmath.matrix(omega.tolist())).tolist()
            np.testing.assert_allclose(got[i], np.array(exact, dtype=float),
                                       rtol=0, atol=1e-15)

    def test_built_cases_take_every_branch(self):
        """(g, w, f, alpha, beta) of a complex pair, three real roots, a
        real pair whose upper root nearly meets lam1, b = 0, and a step of
        norm 1e-9, which gives I + Omega to rounding."""
        complex_pair = (0.3, 1.0, 2.0, 0.01, 0.02)
        cases = np.array([
            complex_pair,
            (5.0, 0.1, 1.0, 0.01, 0.01),
            (0.2, 0.0, 0.1 * (1.0 - 1e-12), 0.0, 0.0),
            (3.0, 0.0, 0.0, 0.0, 0.0),
            1e-9 * np.array(complex_pair)]).T
        lam1, a, b2 = _frame_spectrum(*cases)
        assert b2[0] > 0.0 and b2[4] > 0.0
        assert b2[1] < 0.0 and b2[2] < 0.0 and b2[3] == 0.0
        omega = _omega(*cases)
        assert np.isreal(np.linalg.eigvals(omega[1])).all()
        top = a[2] + np.sqrt(-b2[2])
        assert 0.0 < lam1[2] - top < 1e-5 * abs(lam1[2])
        errors, got, _ = _expm_errors(cases)
        assert errors.max() <= 1e-14
        np.testing.assert_allclose(got[4], np.eye(3) + omega[4], rtol=0,
                                   atol=np.finfo(float).eps)


class TestTrotterStep:
    @given(st.floats(0.05, 3.1), st.floats(0.01, 0.5))
    @settings(max_examples=60)
    def test_step_preserves_norm(self, k, dt):
        # a full Trotter quench of 16 steps of length dt on the mode k, so
        # J takes values across [0, 2]
        p = trotter_protocol(dt, 16, Variant.FULL_QUENCH)
        out = _evolve_trotter(p, np.array([k]))
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0,
                                   rtol=0, atol=1e-12)

    def test_many_small_steps_approach_continuous(self):
        tau_q = 2.0
        k = 0.9
        fine = QuenchProtocol(tau_q=tau_q, evolution=Evolution.TROTTER,
                              dt=tau_q / 2000, steps=2000)
        coarse = QuenchProtocol(tau_q=tau_q)
        e_fine = run_quench(fine, 8, lam=0.0)[-1]
        e_cont = run_quench(coarse, 8, lam=0.0, sample_times=[0.0])[0]
        for nf, nc in zip(e_fine.states, e_cont.states):
            assert np.linalg.norm(nf - nc) < 5e-3


def _rotation_matrices(w):
    """exp(K(w)) of the rotation vectors w, shape (..., 3), as explicit
    3x3 matrices by Rodrigues' formula: I + sin(a) K(u) + (1 - cos(a))
    K(u)^2 with a = |w| and u = w / a (the identity where w = 0)."""
    angle = np.linalg.norm(w, axis=-1)[..., None]
    u = np.divide(w, angle, out=np.zeros_like(w), where=angle > 0.0)
    angle = angle[..., None]
    k = np.zeros(w.shape + (3,))
    k[..., 0, 1], k[..., 0, 2] = -u[..., 2], u[..., 1]
    k[..., 1, 0], k[..., 1, 2] = u[..., 2], -u[..., 0]
    k[..., 2, 0], k[..., 2, 1] = -u[..., 1], u[..., 0]
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _sequential(matrices, n):
    """Apply the step matrices, shape (S, M, 3, 3), to the vectors n,
    shape (M, 3), one step after another; the states after every step,
    shape (S, M, 3)."""
    out = []
    for step in matrices:
        n = np.einsum("mij,mj->mi", step, n)
        out.append(n)
    return np.stack(out)


class TestQuaternionKernel:
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 1001])
    def test_tree_and_scan_match_sequential_rotations(self, steps):
        """The pairwise tree and the prefix scan of the step quaternions
        equal the same step rotations applied one after another, for odd
        and even tree shapes."""
        p = QuenchProtocol(tau_q=4.0, variant=Variant.FULL_QUENCH)
        modes = momentum_grid(16).modes
        w = _magnus_vectors(p, modes, p.t_start, 1.0, steps)
        z = np.tile([0.0, 0.0, 1.0], (len(modes), 1))
        ref = _sequential(_rotation_matrices(np.moveaxis(w, 0, -1)), z)
        q = _quaternions(w)
        np.testing.assert_allclose(_rotate(_compose(q), z), ref[-1],
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(_rotate(_scan(q), z), ref,
                                   rtol=0, atol=1e-13)

    def test_trotter_matches_sequential_layers(self):
        """Every sample of a Trotter quench equals the Ising and field
        layers applied as explicit matrices, one step after another."""
        p = trotter_protocol(0.25, 24, Variant.FULL_QUENCH)
        modes = momentum_grid(20).modes
        t = p.step_times()[:, None]
        j, h = 1.0 + t / p.tau_q, 1.0 - t / p.tau_q
        zero = np.zeros((len(t), len(modes)))
        ising = np.stack([zero, -4.0 * p.dt * j * np.sin(modes),
                          4.0 * p.dt * j * np.cos(modes)], axis=-1)
        field = np.stack([zero, zero, -4.0 * p.dt * h + zero], axis=-1)
        steps = _rotation_matrices(field) @ _rotation_matrices(ising)
        z = np.tile([0.0, 0.0, 1.0], (len(modes), 1))
        np.testing.assert_allclose(_evolve_trotter(p, modes),
                                   _sequential(steps, z), rtol=0, atol=1e-13)

    def test_trotter_mode_independence(self):
        # bit-identical solved alone, in a subset, or in the ensemble
        p = trotter_protocol(0.25, 13, Variant.FULL_QUENCH)
        ensembles = run_quench(p, 12, lam=0.0)
        states = np.stack([e.states for e in ensembles])
        modes = ensembles[0].grid.modes
        np.testing.assert_array_equal(states[:, 2:3],
                                      _evolve_trotter(p, modes[2:3]))
        np.testing.assert_array_equal(states[:, 1::2],
                                      _evolve_trotter(p, modes[1::2]))

    def test_norm_kept_over_long_quench(self):
        # two intervals of 4024 Magnus steps, dt = (10 * 1e-10 * 64) ** 0.25
        p = QuenchProtocol(tau_q=64.0, variant=Variant.FULL_QUENCH)
        ensembles = run_quench(p, 128, lam=0.0, sample_times=[0.0, 64.0])
        stats = integrator_stats(p, 0.0, ensembles)
        assert stats["steps"] == 2 * math.ceil(64.0 / (6.4e-8) ** 0.25) == 8048
        assert stats["max_norm_error"] < 1e-13


class TestRunQuench:
    def test_ensemble_shape(self, small_quench_ensemble):
        e = small_quench_ensemble
        assert e.n_sites == 8
        assert e.states.shape == (4, 3)
        assert e.j == 1.0 and e.h == 1.0

    def test_mode_independence(self, monkeypatch):
        # at lam > 0 a mode's trajectory is bit-identical solved alone, in
        # a subset, in the ensemble, or with fewer propagators per batch
        # than modes (TestMagnus covers lam = 0)
        p = QuenchProtocol(tau_q=1.5, variant=Variant.FULL_QUENCH)
        # the short interval is one partial chunk; the others end in one
        times = [-0.5, -0.4999, 0.0, 1.5]
        for lam in (0.3, 100.0):
            density = _frame_density(p, lam)
            steps = [len(nodes) - 1 for nodes in
                     _frame_nodes(p, lam, np.array(times), density)]
            assert steps[1] < FRAME_CHUNK
            assert all(s > FRAME_CHUNK and s % FRAME_CHUNK for s in steps[2:])
            ensembles = run_quench(p, 12, lam=lam, sample_times=times)
            states = np.stack([e.states for e in ensembles])
            modes = ensembles[0].grid.modes
            alone = evolve_magnus_frame(p, lam, modes[2:3], times)
            np.testing.assert_array_equal(states[:, 2:3], alone)
            subset = evolve_magnus_frame(p, lam, modes[1::2], times)
            np.testing.assert_array_equal(states[:, 1::2], subset)
            with monkeypatch.context() as m:
                m.setattr(kzchain.mode_dynamics, "FRAME_BATCH", len(modes) - 1)
                np.testing.assert_array_equal(
                    states, evolve_magnus_frame(p, lam, modes, times))
            # less than one chunk, whole chunks of some of the modes, and
            # a few chunks of every mode per batch
            for batch in (FRAME_CHUNK // 2, 4 * FRAME_CHUNK,
                          3 * FRAME_CHUNK * len(modes)):
                with monkeypatch.context() as m:
                    m.setattr(kzchain.mode_dynamics, "FRAME_BATCH", batch)
                    np.testing.assert_array_equal(
                        states, evolve_magnus_frame(p, lam, modes, times))

    @pytest.mark.parametrize("lam, kernel", [(0.0, "evolve_magnus"),
                                             (0.3, "evolve_magnus_frame")])
    @pytest.mark.parametrize("fault", [1.01, float("nan")])
    def test_norm_invariant_checked(self, monkeypatch, lam, kernel, fault):
        """A state with |n_k| > 1, or one that is not finite, is an error
        that names the stage, the sample time and the worst mode."""
        p = QuenchProtocol(tau_q=1.0)
        good = getattr(kzchain.mode_dynamics, kernel)

        def faulty(*args):
            states = good(*args)
            states[-1, 3] *= fault
            return states

        monkeypatch.setattr(kzchain.mode_dynamics, kernel, faulty)
        modes = momentum_grid(8).modes
        message = rf"mode_dynamics: at t = 0 .* k = {modes[3]:.6g} "
        with pytest.raises(RuntimeError, match=message):
            run_quench(p, 8, lam=lam, sample_times=[-0.5, 0.0])

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("times", [[0.0, -0.5], [-0.5, -0.5],
                                       [-1.5, 0.0], [0.0, 0.5], []])
    def test_sample_times_checked(self, lam, times):
        # unsorted, repeated, or outside [t_start, t_end] = [-1, 0]
        p = QuenchProtocol(tau_q=1.0)
        with pytest.raises(ValueError, match="sample_times"):
            run_quench(p, 8, lam=lam, sample_times=times)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("key", ["rtol", "atol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerances_checked(self, lam, key, value):
        # run_quench takes neither: every run steps at the fixed RTOL
        p = QuenchProtocol(tau_q=1.0)
        with pytest.raises(TypeError, match=key):
            run_quench(p, 8, lam=lam, sample_times=[0.0], **{key: value})

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_lambda_checked(self, lam):
        p = QuenchProtocol(tau_q=1.0)
        with pytest.raises(ValueError, match="lam"):
            run_quench(p, 8, lam=lam, sample_times=[0.0])
        with pytest.raises(ValueError, match="lam"):
            evolve_magnus_frame(p, lam, [0.5], [0.0])

    def test_trotter_rejects_decoherence(self, small_trotter_protocol):
        with pytest.raises(ValueError):
            run_quench(small_trotter_protocol, 8, lam=0.5)

    def test_trotter_rejects_sample_times(self, small_trotter_protocol):
        with pytest.raises(ValueError):
            run_quench(small_trotter_protocol, 8, lam=0.0, sample_times=[0.0])

    def test_trotter_samples_all_step_boundaries(self, small_trotter_protocol):
        ensembles = run_quench(small_trotter_protocol, 8, lam=0.0)
        times = [e.t for e in ensembles]
        np.testing.assert_allclose(times, small_trotter_protocol.step_times())

    def test_states_grid_mismatch_rejected(self):
        grid = momentum_grid(8)
        with pytest.raises(ValueError):
            ModeEnsemble(grid=grid, states=np.zeros((1, 3)),
                         t=0.0, lam=0.0, j=1.0, h=1.0)
        with pytest.raises(ValueError):
            ModeEnsemble(grid=grid, states=np.zeros((3, 4)),
                         t=0.0, lam=0.0, j=1.0, h=1.0)


class TestPhysicalInvariants:
    @given(st.floats(0.5, 4.0),
           st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
    @settings(max_examples=20, deadline=None)
    def test_bloch_norm_and_residual_energy(self, tau_q, lam):
        """|n_k| <= 1 with equality in the closed system, and E_res >= 0."""
        p = QuenchProtocol(tau_q=tau_q, variant=Variant.FULL_QUENCH)
        for e in run_quench(p, 12, lam=lam, sample_times=[0.0, tau_q]):
            norms = np.linalg.norm(e.states, axis=1)
            assert np.all(norms <= 1.0 + 1e-9)
            if lam == 0.0:
                np.testing.assert_allclose(norms, 1.0, atol=1e-8)
            assert residual_energy(e) >= 0.0
