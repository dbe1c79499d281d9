import math

import numpy as np
import pytest
from scipy.linalg import expm

from kzchain.circuit import (MAX_QUBITS, Gate, GateProgram, emit_program,
                             gate_counts, parse_qasm3, simulate_program,
                             to_qasm3)
from kzchain.oracle import evolve_statevector
from kzchain.protocol import Evolution, QuenchProtocol


def trotter_protocol(steps=8, dt=0.25):
    return QuenchProtocol(tau_q=steps * dt, evolution=Evolution.TROTTER,
                          dt=dt, steps=steps)


class TestGateValidation:
    def test_rotation_needs_angle(self):
        with pytest.raises(ValueError):
            Gate("rx", (0,))

    def test_cx_needs_two_qubits(self):
        with pytest.raises(ValueError):
            Gate("cx", (0,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("cz", (0, 1))


class TestEmission:
    def test_gate_counts_per_step(self):
        # per step: N RX + N RZ + 2N CX
        n, steps = 20, 16
        prog = emit_program(trotter_protocol(steps=steps, dt=0.2), n)
        counts = gate_counts(prog)
        assert counts == {"cx": 2 * n * steps, "rz": n * steps, "rx": n * steps}

    def test_x_basis_appends_hadamard_layer(self):
        prog = emit_program(trotter_protocol(), 6, measure_basis="x")
        assert gate_counts(prog)["h"] == 6
        assert all(g.kind == "h" for g in prog.gates[-6:])

    def test_angles_follow_schedule(self):
        p = trotter_protocol(steps=4, dt=0.5)
        prog = emit_program(p, 4)
        rx_angles = sorted({g.angle for g in prog.gates if g.kind == "rx"},
                           reverse=True)
        # theta_s = -2*dt*h(t_s), h decreasing towards the QCP
        expected = sorted((-2 * 0.5 * (1 - t / p.tau_q) for t in p.step_times()),
                          reverse=True)
        assert rx_angles == pytest.approx(expected)

    def test_rejects_continuous_protocol(self):
        with pytest.raises(ValueError):
            emit_program(QuenchProtocol(tau_q=1.0), 6)

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            emit_program(trotter_protocol(), 5)


class TestQasmRoundTrip:
    def test_header_and_measurement(self):
        text = to_qasm3(emit_program(trotter_protocol(), 4))
        lines = text.splitlines()
        assert lines[0] == "OPENQASM 3.0;"
        assert lines[1] == 'include "stdgates.inc";'
        assert "qubit[4] q;" in lines and "bit[4] c;" in lines
        assert lines[-1] == "c = measure q;"

    def test_cx_line_format(self):
        text = to_qasm3(emit_program(trotter_protocol(), 4))
        assert "cx q[2], q[1];" in text

    def test_deterministic_output(self):
        p = trotter_protocol()
        assert to_qasm3(emit_program(p, 6)) == to_qasm3(emit_program(p, 6))

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_round_trip(self, basis):
        prog = emit_program(trotter_protocol(), 6, measure_basis=basis)
        back = parse_qasm3(to_qasm3(prog))
        assert back == prog

    def test_rejects_foreign_text(self):
        with pytest.raises(ValueError):
            parse_qasm3("OPENQASM 2.0;\nqreg q[2];\n")

    @pytest.mark.parametrize("text, message", [
        ("", "not an OpenQASM 3 file"),
        ("OPENQASM 3.0;\n", "missing qubit declaration"),
    ], ids=["empty", "header_only"])
    def test_rejects_empty_or_truncated_text(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_qasm3(text)


class TestSimulation:
    def test_identity_program_keeps_plus_state(self):
        prog = GateProgram(n_qubits=3, gates=())
        psi = simulate_program(prog)
        np.testing.assert_allclose(psi, 1 / math.sqrt(8), atol=1e-12)

    def test_cx_fixes_plus_state(self):
        # |++> is a CX eigenstate
        prog = GateProgram(n_qubits=2, gates=(Gate("cx", (1, 0)),))
        out = simulate_program(prog)
        assert out == pytest.approx(np.full(4, 0.5))

    def test_rz_dephases_relative_phase(self):
        prog = GateProgram(n_qubits=1, gates=(Gate("rz", (0,), math.pi / 2),))
        out = simulate_program(prog)
        rel = out[1] / out[0]
        assert rel == pytest.approx(np.exp(1j * math.pi / 2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_gate_matrices(self, n):
        """Each gate as a dense 2^N matrix: one-qubit gates as kron
        products, RZ and RX as expm(-i angle P / 2), and CX as the basis
        permutation, for every ordered (control, target) pair."""
        rng = np.random.default_rng(n)
        gates = []
        for c in range(n):
            for t in range(n):
                if c != t:
                    q = int(rng.integers(n))
                    gates += [Gate("rx", (q,), float(rng.uniform(-3, 3))),
                              Gate("h", (int(rng.integers(n)),)),
                              Gate("rz", (q,), float(rng.uniform(-3, 3))),
                              Gate("cx", (c, t))]
        x = np.array([[0, 1], [1, 0]])
        z = np.diag([1.0, -1.0])
        one_qubit = {"rx": lambda a: expm(-0.5j * a * x),
                     "rz": lambda a: expm(-0.5j * a * z),
                     "h": lambda a: (x + z) / math.sqrt(2.0)}
        psi = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
        for gate in gates:
            if gate.kind == "cx":
                c, t = gate.qubits
                u = np.zeros((2**n, 2**n))
                for s in range(2**n):
                    u[s ^ (1 << t) if s >> c & 1 else s, s] = 1.0
            else:
                (q,) = gate.qubits
                u = np.kron(np.kron(np.eye(2 ** (n - 1 - q)),
                                    one_qubit[gate.kind](gate.angle)),
                            np.eye(2**q))
            psi = u @ psi
        out = simulate_program(GateProgram(n_qubits=n, gates=tuple(gates)))
        assert np.max(np.abs(out - psi)) < 1e-13

    def test_matches_oracle_trotter(self):
        """Gate-by-gate simulation reproduces the layered Trotter oracle."""
        n = 6
        p = trotter_protocol(steps=16, dt=0.25)
        prog = emit_program(p, n)
        psi = simulate_program(prog)
        ref = evolve_statevector(p, n)[-1].data
        overlap = abs(np.vdot(ref, psi))
        assert 1.0 - overlap < 1e-10

    def test_statevector_budget(self):
        prog = GateProgram(n_qubits=MAX_QUBITS + 1, gates=())
        with pytest.raises(ValueError, match="statevector budget 14"):
            simulate_program(prog)
