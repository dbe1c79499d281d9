"""Dense-oracle internals and pipeline cross-validation at small N.

The oracle is the independent route: a statevector (or density-matrix)
integration of the full spin Hamiltonian with no Jordan-Wigner step, no
momentum decomposition and no Pfaffian.  Agreement with the mode pipeline
is therefore evidence for the whole free-fermion chain of reasoning.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp

from kzchain import oracle
from kzchain.correlators import (fermion_correlators, magnetization_x,
                                 xx_connected, zz_connected)
from kzchain.mode_dynamics import run_quench
from kzchain.observables import defect_density, run_record, total_energy
from kzchain.oracle import (DenseState, _pauli_moments, _sector_terms,
                            _symmetric_sector, _wht, _zz_diagonal,
                            evolve_lindblad, evolve_statevector,
                            oracle_observables)
from kzchain.protocol import Evolution, QuenchProtocol, Variant, schedule_at


def _sx_sum(n):
    """sum_i sigma^x_i as a scipy.sparse CSR matrix, shape (2^n, 2^n)."""
    dim = 2**n
    idx = np.arange(dim)
    rows = np.concatenate([idx ^ (1 << i) for i in range(n)])
    cols = np.tile(idx, n)
    return sparse.csr_matrix(
        (np.ones(n * dim), (rows, cols)), shape=(dim, dim)
    )


def dense_hamiltonian(n, j, h):
    """H = -J sum sigma^z_i sigma^z_{i+1} - h sum sigma^x_i, periodic, as a
    scipy.sparse CSR matrix in the full 2^n basis: the full-space
    reference the sector evolutions are checked against."""
    hz = sparse.diags(-j * _zz_diagonal(np.arange(2**n), n), format="csr")
    return (hz - h * _sx_sum(n)).tocsr()


class TestHamiltonian:
    def test_paramagnet_ground_state(self):
        # h-only Hamiltonian: |+>^N has energy -h*N
        ham = dense_hamiltonian(4, 0.0, 2.0)
        plus = np.full(16, 0.25)
        assert plus @ (ham @ plus) == pytest.approx(-8.0)

    def test_ferromagnet_ground_energy(self):
        ham = dense_hamiltonian(4, 2.0, 0.0)
        assert np.min(ham.diagonal()) == pytest.approx(-8.0)

    def test_critical_spectrum_matches_free_fermions(self):
        """Even-parity ground energy = -sum |h_k| over positive modes."""
        from kzchain.protocol import momentum_grid, pseudo_field_components
        n, j, h = 8, 1.0, 1.0
        ham = dense_hamiltonian(n, j, h).toarray()
        e0 = np.linalg.eigvalsh(ham)[0]
        hy, hz = pseudo_field_components(momentum_grid(n).modes, j, h)
        expected = -np.sum(np.hypot(hy, hz))
        assert e0 == pytest.approx(expected, abs=1e-10)


def _plus(n):
    return np.full(2**n, 2.0 ** (-n / 2), dtype=complex)


def _full_space_solve(p, n, times, y0, rhs_of_ham, rtol, atol):
    """Reference DOP853 solve in the full 2^n basis, H(t) built from the
    full-space dense_hamiltonian; rhs_of_ham(ham, y) gives dy/dt."""
    h_zz = dense_hamiltonian(n, 1.0, 0.0)
    h_x = dense_hamiltonian(n, 0.0, 1.0)

    def rhs(t, y):
        sched = schedule_at(p, min(max(t, p.t_start), p.t_end))
        return rhs_of_ham(sched.j * h_zz + sched.h * h_x, y)

    sol = solve_ivp(rhs, (p.t_start, times[-1]), y0, method="DOP853",
                    t_eval=times, rtol=rtol, atol=atol)
    assert sol.success
    return sol.y.T.copy()


def _sector_matrix(n):
    """The sector isometry P as a sparse (2^n, d) matrix, built from the
    orbit labels and weights that _symmetric_sector returns."""
    orbit, weight, _ = _symmetric_sector(n)
    return sparse.csr_matrix((weight, (np.arange(2**n), orbit)),
                             shape=(2**n, orbit.max() + 1))


def _full_basis_sector_terms(n):
    """zz and the transverse-field entries (rows, cols, values) of the
    sector, counted over every basis state: zz averaged over each orbit,
    and one bincount over all n 2^n pairs (orbit(s), orbit(s ^ 2^i)).
    The reference for _sector_terms' counts off orbit representatives."""
    orbit, _, _ = _symmetric_sector(n)
    size = np.bincount(orbit)
    d = size.size
    zz = np.bincount(orbit, weights=_zz_diagonal(np.arange(2**n), n)) / size
    flipped = orbit[np.arange(2**n) ^ (1 << np.arange(n))[:, None]]
    pairs = np.bincount((orbit * d + flipped).ravel(), minlength=d * d)
    key = np.flatnonzero(pairs)
    a, b = np.divmod(key, d)
    return zz, a, b, pairs[key] / np.sqrt(size[a] * size[b])


class TestSymmetricSector:
    """The shift-, reflection- and flip-invariant sector the continuous
    evolutions use."""

    @pytest.mark.parametrize("n, dim", [(4, 4), (6, 8), (8, 18), (10, 44),
                                        (12, 122), (14, 362)])
    def test_isometry_invariant_under_h(self, n, dim):
        j, h = np.random.default_rng(n).uniform(-2.0, 2.0, size=2)
        proj = _sector_matrix(n)
        assert proj.shape == (2**n, dim)
        # every orbit is closed under reversing the order of the sites
        orbit, _, reps = _symmetric_sector(n)
        idx = np.arange(2**n)
        # reps[c] is the smallest member of orbit c
        assert np.array_equal(orbit[reps], np.arange(dim))
        assert np.all(reps[orbit] <= idx)
        reversed_idx = np.zeros_like(idx)
        for i in range(n):
            reversed_idx |= ((idx >> i) & 1) << (n - 1 - i)
        assert np.array_equal(orbit[reversed_idx], orbit)
        gram = (proj.T @ proj).toarray()
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-13
        hp = dense_hamiltonian(n, j, h) @ proj
        assert abs(hp - proj @ (proj.T @ hp)).max() < 1e-13
        psi0 = _plus(n)
        assert np.max(np.abs(proj @ (proj.T @ psi0) - psi0)) < 1e-13

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_sector_terms_match_projected_operators(self, n):
        """The index-built sector terms equal P^T H P formed by sparse
        products with the full-space operators."""
        _, _, zz, (rows, cols, vals) = _sector_terms(n)
        ref_proj = _sector_matrix(n)
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        spins = 1 - 2 * bits
        zz_full = np.sum(spins * np.roll(spins, -1, axis=1), axis=1)
        ref_zz = ref_proj.T @ sparse.diags(zz_full.astype(float)) @ ref_proj
        assert np.max(np.abs(zz - ref_zz.diagonal())) < 1e-13
        ref_sx = (ref_proj.T @ _sx_sum(n) @ ref_proj).toarray()
        sx = np.zeros_like(ref_sx)
        sx[rows, cols] = vals
        assert np.max(np.abs(sx - ref_sx)) < 1e-13
        # the entries are exactly the nonzeros of P^T sx P, each once
        assert np.array_equal(np.flatnonzero(sx), np.flatnonzero(ref_sx))
        assert rows.size == np.count_nonzero(ref_sx)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
    def test_representative_counts_equal_full_basis_counts(self, n):
        _, _, zz, (rows, cols, vals) = _sector_terms(n)
        ref = _full_basis_sector_terms(n)
        for got, want in zip((zz, rows, cols, vals), ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_statevector_matches_full_space(self, variant):
        # N = 8 is the first chain where the reflection merges orbits
        p = QuenchProtocol(tau_q=1.5, variant=variant)
        times = [p.t_start + 0.4 * p.duration, p.t_end]

        def rhs(ham, y):
            return (-1j * (ham @ y.view(complex))).view(float)

        for n in (8, 10):
            ref = _full_space_solve(p, n, times, _plus(n).view(float), rhs,
                                    rtol=1e-11, atol=1e-13)
            states = evolve_statevector(p, n, sample_times=times)
            assert [s.t for s in states] == times
            for s, y in zip(states, ref):
                s.validate(tol=1e-10)
                assert np.max(np.abs(s.data - y.view(complex))) < 1e-9

    @pytest.mark.parametrize("lam", [0.2, 5.0])
    def test_lindblad_matches_full_space(self, lam):
        n, dim = 4, 16
        p = QuenchProtocol(tau_q=0.25)
        times = [-0.125, 0.0]

        def rhs(ham, y):
            rho = y.view(complex).reshape(dim, dim)
            comm = ham @ rho - rho @ ham
            return (-1j * comm - lam * (ham @ comm - comm @ ham)).ravel().view(float)

        rho0 = np.outer(_plus(n), _plus(n).conj())
        ref = _full_space_solve(p, n, times, rho0.ravel().view(float), rhs,
                                rtol=1e-10, atol=1e-12)
        states = evolve_lindblad(p, n, lam, sample_times=times)
        for s, y in zip(states, ref):
            s.validate()
            assert np.max(np.abs(s.data - y.view(complex).reshape(dim, dim))) < 1e-9


class TestSampleTimes:
    """Both continuous evolutions integrate to the last sample time only."""

    def test_sample_at_start_is_start_state(self):
        p = QuenchProtocol(tau_q=1.0)
        (s,) = evolve_statevector(p, 4, sample_times=[p.t_start])
        (r,) = evolve_lindblad(p, 4, 0.5, sample_times=[p.t_start])
        assert s.t == r.t == p.t_start
        np.testing.assert_allclose(s.data, _plus(4), atol=1e-15)
        np.testing.assert_allclose(r.data, np.outer(_plus(4), _plus(4)),
                                   atol=1e-15)

    @pytest.mark.parametrize("times", [[0.0, -0.5], [-0.5, -0.5], [],
                                       [-2.0], [0.5]])
    def test_rejects_bad_sample_times(self, times):
        p = QuenchProtocol(tau_q=1.0)
        with pytest.raises(ValueError, match="sample_times"):
            evolve_statevector(p, 4, sample_times=times)
        with pytest.raises(ValueError, match="sample_times"):
            evolve_lindblad(p, 4, 0.1, sample_times=times)


def _tight_sector_solve(p, n, lam, times, density):
    """The statevector (density=False) or Lindblad run by a tight
    solve_ivp(method="DOP853") on the sector terms of _sector_terms, as a
    sparse product for a statevector and dense d x d matrices for a
    density matrix, returned in the full basis: the reference for the
    oracle's Taylor stepper."""
    _, _, zz, (rows, cols, vals) = _sector_terms(n)
    d = zz.size
    sx = sparse.csr_matrix((vals, (rows, cols)), shape=(d, d))
    zz_dense, sx_dense = np.diag(zz), sx.toarray()
    proj = _sector_matrix(n).toarray()
    c0 = proj.T @ _plus(n)

    def rhs(t, y):
        sched = schedule_at(p, t)
        if not density:
            c = y.view(complex)
            return (1j * (sched.j * zz * c + sched.h * (sx @ c))).view(float)
        h = -sched.j * zz_dense - sched.h * sx_dense
        rho = y.view(complex).reshape(d, d)
        comm = h @ rho - rho @ h
        return (-1j * comm - lam * (h @ comm - comm @ h)).ravel().view(float)

    y0 = np.outer(c0, c0.conj()).ravel() if density else c0
    sol = solve_ivp(rhs, (p.t_start, times[-1]), y0.view(float),
                    method="DOP853", t_eval=times, rtol=1e-13, atol=1e-15)
    assert sol.success
    ys = [y.view(complex) for y in sol.y.T.copy()]
    if density:
        return [proj @ y.reshape(d, d) @ proj.T for y in ys]
    return [proj @ y for y in ys]


def _evolve(kind, arg, sample_times):
    """The oracle's statevector run at N = arg, or its N = 6 Lindblad run
    at lambda = arg, sampled at sample_times(p), with the protocol p."""
    if kind == "statevector":
        p = QuenchProtocol(tau_q=1.2)
        return p, evolve_statevector(p, arg, sample_times=sample_times(p))
    p = QuenchProtocol(tau_q=1.0)
    return p, evolve_lindblad(p, 6, arg, sample_times=sample_times(p))


def _assert_match_tight_solve_ivp(p, n, lam, times, states, density):
    # each step ends on a sample time: no interpolation, no rounding
    assert [s.t for s in states] == list(times)
    ref = _tight_sector_solve(p, n, lam, times, density)
    for s, want in zip(states, ref):
        assert np.max(np.abs(s.data - want)) < 1e-12


class TestDop853Port:
    """The oracle's states against a tight solve_ivp(method="DOP853") on
    the same sector terms.  The class is named for the DOP853 port the
    oracle stepped before its Taylor stepper; scipy's DOP853 is now only
    the reference."""

    @pytest.mark.parametrize("samples", ["end", "start_interior_end",
                                         "step_boundary"])
    @pytest.mark.parametrize("kind, arg", [("statevector", 10),
                                           ("statevector", 14),
                                           ("lindblad", 0.1),
                                           ("lindblad", 1.0)])
    def test_oracle_states_equal_solve_ivp(self, monkeypatch, kind, arg,
                                           samples):
        if samples == "end":
            pick = lambda p: [p.t_end]
        elif samples == "start_interior_end":
            pick = lambda p: [p.t_start, p.t_start + 0.37 * p.duration, p.t_end]
        else:
            # the step ends of a run to t_end, from the fixed step it
            # passes to _taylor; sample the middle one, which a step then
            # reaches exactly
            steps, taylor = [], oracle._taylor

            def recorded(series, step, *args):
                steps.append(step)
                return taylor(series, step, *args)

            with monkeypatch.context() as m:
                m.setattr(oracle, "_taylor", recorded)
                p, _ = _evolve(kind, arg, lambda p: [p.t_end])
            (step,) = steps
            inner, t = [], p.t_start + step
            while t < p.t_end:
                inner.append(t)
                t += step
            assert len(inner) >= 3
            pick = lambda p: [inner[len(inner) // 2], p.t_end]
        p, states = _evolve(kind, arg, pick)
        density = kind == "lindblad"
        _assert_match_tight_solve_ivp(p, 6 if density else arg,
                                      arg if density else 0.0, pick(p),
                                      states, density)

    def test_step_too_small_names_the_stage(self):
        # at lam = 1e17 the step cap 6 / (s + lam s^2) is below the float
        # spacing of t_start = -2
        p = QuenchProtocol(tau_q=2.0)
        with pytest.raises(RuntimeError, match=r"^Lindblad integration failed: "
                           r"a step of \S+ does not advance t = -2.0$"):
            evolve_lindblad(p, 4, 1e17)


class TestTaylorStepper:
    """Both continuous evolutions step their Taylor series; the full
    quench and the largest density matrix against the tight reference,
    and the stepper's failure."""

    @pytest.mark.parametrize("kind, n, lam, tau_q, variant", [
        pytest.param("statevector", n, 0.0, 1.2, Variant.FULL_QUENCH,
                     id=f"statevector-{n}-full_quench") for n in (10, 14)
    ] + [
        pytest.param("lindblad", n, lam, tau_q, v, id=f"lindblad-{n}-{lam}")
        for n, lam, tau_q, v in [(6, 1.0, 1.0, Variant.FULL_QUENCH),
                                 (8, 1.0, 2.0, Variant.TO_CRITICAL_POINT)]
    ])
    def test_matches_tight_solve_ivp(self, kind, n, lam, tau_q, variant):
        p = QuenchProtocol(tau_q=tau_q, variant=variant)
        times = [p.t_start, p.t_start + 0.37 * p.duration, p.t_end]
        density = kind == "lindblad"
        states = (evolve_lindblad(p, n, lam, sample_times=times) if density
                  else evolve_statevector(p, n, sample_times=times))
        _assert_match_tight_solve_ivp(p, n, lam, times, states, density)

    @pytest.mark.parametrize("what", ["statevector", "Lindblad"])
    def test_non_finite_state_names_the_stage(self, monkeypatch, what):
        monkeypatch.setattr(oracle, "_plus_state",
                            lambda n: np.full(2**n, np.nan, dtype=complex))
        p = QuenchProtocol(tau_q=2.0)
        with pytest.raises(RuntimeError) as err:
            if what == "Lindblad":
                evolve_lindblad(p, 4, 0.5)
            else:
                evolve_statevector(p, 4)
        assert str(err.value) == (f"{what} integration failed: non-finite "
                                  f"state at t = {p.t_start}")


class TestStatevectorEvolution:
    def test_norm_preserved(self):
        p = QuenchProtocol(tau_q=1.0)
        (s,) = evolve_statevector(p, 4)
        s.validate(tol=1e-10)

    def test_validate_checks_norm_against_tol(self):
        drifted = DenseState(4, 0.0, _plus(4) * (1 + 1e-9))
        drifted.validate(tol=1e-6)
        with pytest.raises(ValueError, match="statevector norm drifted"):
            drifted.validate(tol=1e-10)

    def test_sudden_quench_stays_plus(self):
        p = QuenchProtocol(tau_q=1e-4)
        (s,) = evolve_statevector(p, 4)
        obs = oracle_observables(s, 1.0, 1.0)
        np.testing.assert_allclose(obs["m_x"], 1.0, atol=1e-3)

    def test_trotter_fixed_sampling(self):
        p = QuenchProtocol(tau_q=1.0, evolution=Evolution.TROTTER,
                           dt=0.25, steps=4)
        states = evolve_statevector(p, 4)
        assert [s.t for s in states] == pytest.approx([-0.75, -0.5, -0.25, 0.0])
        with pytest.raises(ValueError):
            evolve_statevector(p, 4, sample_times=[0.0])

    def test_size_guard(self):
        with pytest.raises(ValueError):
            evolve_statevector(QuenchProtocol(tau_q=1.0), 40)


class TestLindbladEvolution:
    def test_reduces_to_unitary_at_lambda_zero(self):
        p = QuenchProtocol(tau_q=0.5)
        (rho_state,) = evolve_lindblad(p, 4, 0.0)
        (psi_state,) = evolve_statevector(p, 4)
        pure = np.outer(psi_state.data, psi_state.data.conj())
        assert np.max(np.abs(rho_state.data - pure)) < 1e-7

    def test_purity_decays(self):
        p = QuenchProtocol(tau_q=1.0)
        (rho_state,) = evolve_lindblad(p, 4, 0.2)
        rho_state.validate(tol=1e-7)
        purity = float(np.real(np.trace(rho_state.data @ rho_state.data)))
        assert purity < 1.0 - 1e-4

    def test_energy_dephasing_pins_populations(self):
        """The double-commutator channel only kills coherences in the
        instantaneous energy basis, so a static Hamiltonian's populations
        are frozen while purity drops."""
        # emulate "static" with a long quench sampled early
        p = QuenchProtocol(tau_q=50.0)
        t = -49.0
        (rho_state,) = evolve_lindblad(p, 4, 5.0, sample_times=[t])
        sched = schedule_at(p, t)
        ham = dense_hamiltonian(4, sched.j, sched.h).toarray()
        energy = float(np.real(np.trace(rho_state.data @ ham)))
        (psi_state,) = evolve_statevector(p, 4, sample_times=[t])
        e_unitary = float(np.real(
            psi_state.data.conj() @ (ham @ psi_state.data)))
        assert energy == pytest.approx(e_unitary, abs=5e-2)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_lambda(self, lam):
        with pytest.raises(ValueError, match="lam"):
            evolve_lindblad(QuenchProtocol(tau_q=1.0), 4, lam)

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError, match="even N"):
            evolve_lindblad(QuenchProtocol(tau_q=1.0), 5, 0.1)

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_steps_without_an_eigensolver(self, monkeypatch, n, lam):
        # the step comes from the bound spread(H) <= 4N, not a spectrum
        def refuse(*args, **kwargs):
            raise AssertionError("evolve_lindblad called an eigensolver")

        with monkeypatch.context() as m:
            for name in ("eig", "eigh", "eigvals", "eigvalsh"):
                m.setattr(np.linalg, name, refuse)
            (rho,) = evolve_lindblad(QuenchProtocol(tau_q=1.0), n, lam)
        rho.validate()

    def test_density_matrix_cap(self):
        # N = 8 is the largest chain: an 18 x 18 sector block
        (rho,) = evolve_lindblad(QuenchProtocol(tau_q=0.2), 8, 0.1)
        rho.validate()
        with pytest.raises(ValueError, match=r"N = 10 outside supported range \[2, 8\]"):
            evolve_lindblad(QuenchProtocol(tau_q=1.0), 10, 0.1)


class TestPipelineAgainstOracle:
    """Free-fermion pipeline vs dense statevector on the same protocol."""

    @pytest.mark.parametrize("tau_q", [0.5, 2.0])
    def test_continuous_observables_match(self, tau_q):
        n = 8
        p = QuenchProtocol(tau_q=tau_q)
        e = run_quench(p, n, lam=0.0, sample_times=[0.0])[0]
        fc = fermion_correlators(e)
        (s,) = evolve_statevector(p, n)
        obs = oracle_observables(s, 1.0, 1.0)
        assert magnetization_x(fc) == pytest.approx(np.mean(obs["m_x"]), abs=1e-8)
        assert defect_density(fc) == pytest.approx(obs["n_def"], abs=1e-8)
        assert total_energy(e) == pytest.approx(obs["energy"], abs=1e-7)
        for x in range(1, n // 2 + 1):
            assert zz_connected(fc, x) == pytest.approx(obs["c_zz"][x], abs=1e-8)
            assert xx_connected(fc, x) == pytest.approx(obs["c_xx"][x], abs=1e-8)

    def test_full_quench_matches(self):
        n = 6
        p = QuenchProtocol(tau_q=1.0, variant=Variant.FULL_QUENCH)
        e = run_quench(p, n, lam=0.0, sample_times=[1.0])[0]
        fc = fermion_correlators(e)
        (s,) = evolve_statevector(p, n)
        sched = schedule_at(p, 1.0)
        obs = oracle_observables(s, sched.j, sched.h)
        assert defect_density(fc) == pytest.approx(obs["n_def"], abs=1e-8)
        assert total_energy(e) == pytest.approx(obs["energy"], abs=1e-7)

    def test_trotter_matches(self):
        n = 6
        p = QuenchProtocol(tau_q=2.0, evolution=Evolution.TROTTER,
                           dt=0.25, steps=8)
        e = run_quench(p, n, lam=0.0)[-1]
        fc = fermion_correlators(e)
        s = evolve_statevector(p, n)[-1]
        obs = oracle_observables(s, 1.0, 1.0)
        assert defect_density(fc) == pytest.approx(obs["n_def"], abs=1e-10)
        for x in range(1, n // 2 + 1):
            assert zz_connected(fc, x) == pytest.approx(obs["c_zz"][x], abs=1e-10)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("n", [4, 6])
    def test_dephased_observables_match_lindblad(self, n, lam, variant):
        """At lam > 0 the pipeline's m_x, n_def and energy follow the full
        master equation, at an interior sample and at t_end.

        Both sides report the total energy <H> of the chain, not E/N.
        C_zz(x >= 2) and C_xx are deliberately not compared.  The pipeline
        dephases each (k, -k) pair in its own H_k, and at lam > 0 such a
        pair state is mixed and not fermionic-Gaussian, so its Wick and
        Pfaffian values of the longer Jordan-Wigner strings are the Wick
        closure of that per-mode channel, not the channel's exact value.
        The cross terms [H_k, [H_k', rho]] that evolve_lindblad keeps
        leave every quadratic expectation's equation of motion unchanged
        and move the longer strings less: at N = 6 and 8, tau_q = 2, the
        closure moves them by 6e-3 to 0.16 from the exact per-mode
        channel, and the cross terms by 3e-5 to 8e-3.
        """
        p = QuenchProtocol(tau_q=2.0, variant=variant)
        times = [p.t_start + 0.4 * p.duration, p.t_end]
        rec = run_record(run_quench(p, n, lam=lam, sample_times=times), p)
        rhos = evolve_lindblad(p, n, lam, sample_times=times)
        for sample, rho in zip(rec.samples, rhos):
            sched = schedule_at(p, rho.t)
            obs = oracle_observables(rho, sched.j, sched.h)
            assert sample["m_x"] == pytest.approx(np.mean(obs["m_x"]), abs=1e-8)
            assert sample["n_def"] == pytest.approx(obs["n_def"], abs=1e-8)
            assert sample["e_total"] == pytest.approx(obs["energy"], abs=1e-8)


def _observables_by_string(s, j, h):
    """Every expectation value as its own sum over the basis, one Pauli
    string at a time: the route oracle_observables' transforms replace."""
    n = s.n_sites
    idx = np.arange(2**n)
    spins = 1 - 2 * ((idx[:, None] >> np.arange(n)) & 1)
    rho = s.data if s.is_density_matrix else None
    p = np.real(np.diag(rho)) if rho is not None else np.abs(s.data) ** 2

    def x_string(mask):
        if rho is not None:
            return float(np.real(np.sum(rho[idx, idx ^ mask])))
        return float(np.real(np.sum(s.data.conj()[idx ^ mask] * s.data)))

    def zz(i, x):
        return p @ (spins[:, i] * spins[:, (i + x) % n])

    sz = p @ spins
    sx = np.array([x_string(1 << i) for i in range(n)])
    zz_bond = np.array([zz(i, 1) for i in range(n)])
    c_zz, c_xx = {}, {}
    for x in range(1, n // 2 + 1):
        zz_x = np.array([zz(i, x) for i in range(n)])
        c_zz[x] = float(np.mean(zz_x - sz * np.roll(sz, -x)))
        xx_x = np.array([x_string((1 << i) | (1 << ((i + x) % n)))
                         for i in range(n)])
        c_xx[x] = float(np.mean(xx_x - sx * np.roll(sx, -x)))
    zz_sum = np.sum(spins * np.roll(spins, -1, axis=1), axis=1)
    return {"m_x": sx, "m_z": sz, "c_zz": c_zz, "c_xx": c_xx,
            "n_def": float(np.mean(1.0 - zz_bond) / 2.0),
            "energy": float(-j * (p @ zz_sum) - h * np.sum(sx))}


def _test_states(n):
    """Random and evolved states at N = n, statevectors and density
    matrices."""
    rng = np.random.default_rng(n)
    dim = 2**n
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    p = QuenchProtocol(tau_q=1.0, variant=Variant.FULL_QUENCH)
    evolved = evolve_statevector(p, n, sample_times=[0.3])[0]
    mixed = evolve_lindblad(p, n, 0.5, sample_times=[0.3])[0]
    return [DenseState(n, 0.3, psi), DenseState(n, 0.3, rho), evolved, mixed]


def _assert_matches_strings(s):
    for j, h in [(1.0, 1.0), (0.7, 1.3)]:
        got = oracle_observables(s, j, h)
        ref = _observables_by_string(s, j, h)
        for key in ("m_x", "m_z"):
            np.testing.assert_allclose(got[key], ref[key], rtol=0, atol=1e-13)
        for key in ("n_def", "energy"):
            assert got[key] == pytest.approx(ref[key], abs=1e-13)
        for key in ("c_zz", "c_xx"):
            assert got[key].keys() == ref[key].keys()
            for x in ref[key]:
                assert got[key][x] == pytest.approx(ref[key][x], abs=1e-13)


@pytest.fixture(scope="module")
def evolved_14():
    """An N = 14 statevector at t = 0.3 of a tau_q = 1.2 full quench."""
    p = QuenchProtocol(tau_q=1.2, variant=Variant.FULL_QUENCH)
    return evolve_statevector(p, 14, sample_times=[0.3])[0]


class TestObservablesAgainstStrings:
    """oracle_observables against one sum per Pauli string."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_matches_per_string_sums(self, n):
        for s in _test_states(n):
            _assert_matches_strings(s)

    def test_matches_per_string_sums_at_largest_statevector(self, evolved_14):
        # N = 14, where the transforms sum the most terms and round most
        rng = np.random.default_rng(14)
        psi = rng.standard_normal(2**14) + 1j * rng.standard_normal(2**14)
        for s in (DenseState(14, 0.3, psi / np.linalg.norm(psi)), evolved_14):
            _assert_matches_strings(s)


def _sylvester(n):
    """The 2^n x 2^n Hadamard matrix, entry (m, s) = (-1)^|m & s|."""
    mat = np.ones((1, 1))
    for _ in range(n):
        mat = np.block([[mat, mat], [mat, -mat]])
    return mat


def _traced_peak(fun):
    """The tracemalloc peak, in bytes, of one call of fun."""
    tracemalloc.start()
    try:
        fun()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPauliMoments:
    """The Walsh-Hadamard route to every Z- and X-string moment."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_wht_is_sylvester_hadamard(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        want = _sylvester(n) @ v
        got = v.copy()
        assert _wht(got) is got
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        ints = rng.integers(-9, 10, size=2**n).astype(float)
        assert np.array_equal(_wht(ints.copy()), _sylvester(n) @ ints)

    def test_pure_density_matrix_gives_statevector_moments(self):
        n = 6
        rng = np.random.default_rng(n)
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        p = QuenchProtocol(tau_q=1.0, variant=Variant.FULL_QUENCH)
        evolved = evolve_statevector(p, n, sample_times=[0.3])[0].data
        for vec in (psi / np.linalg.norm(psi), evolved):
            pure = DenseState(n, 0.3, np.outer(vec, vec.conj()))
            for got, want in zip(_pauli_moments(pure),
                                 _pauli_moments(DenseState(n, 0.3, vec))):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_observables_memory(self, evolved_14):
        # the moments take O(2^N) memory: a few copies of the 256 KB state
        peak = _traced_peak(lambda: oracle_observables(evolved_14, 1.0, 1.0))
        assert peak <= 1.5e6

    def test_density_moments_memory(self):
        # one bit of both indices at a time holds at most three quarters
        # of Re rho's 4^N floats, 0.39 MB at N = 8, plus numpy's fixed-size
        # ufunc buffers; one transform over the 2N-bit flat index of rho
        # held 1.5 * 4^N floats and peaked at 1.05 MB
        n = 8
        a = np.random.default_rng(n).standard_normal((2**n, 2**n, 2)) @ [1, 1j]
        rho = DenseState(n, 0.0, a @ a.conj().T / np.trace(a @ a.conj().T).real)
        assert _traced_peak(lambda: oracle_observables(rho, 1.0, 1.0)) <= 0.7e6

    def test_sector_terms_memory(self):
        _sector_terms.cache_clear()
        assert _traced_peak(lambda: _sector_terms(14)) <= 3e6
