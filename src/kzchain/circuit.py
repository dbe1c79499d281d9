"""Trotterized quench as an explicit gate program with OpenQASM 3 emission.

Per step s: odd-bond Ising sublayer, even-bond Ising sublayer, then a
transverse-field RX layer.  Each Ising bond (i, i+1) compiles to
CX - RZ(-2*dt*J(t_s)) - CX with the rotation on the lower site; RX angles
are -2*dt*h(t_s).  X-basis measurement appends a Hadamard layer before
the Z-basis measurement.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .protocol import Evolution, QuenchProtocol, schedule_at

__all__ = [
    "Gate",
    "GateProgram",
    "emit_program",
    "to_qasm3",
    "parse_qasm3",
    "simulate_program",
    "gate_counts",
]

# largest program simulate_program runs: 2^14 amplitudes
MAX_QUBITS = 14


@dataclass(frozen=True)
class Gate:
    kind: str                 # "rx", "rz", "cx", "h"
    qubits: Tuple[int, ...]
    angle: Optional[float] = None

    def __post_init__(self):
        if self.kind in ("rx", "rz"):
            if len(self.qubits) != 1 or self.angle is None:
                raise ValueError(f"{self.kind} takes one qubit and an angle")
        elif self.kind == "cx":
            if len(self.qubits) != 2 or self.angle is not None:
                raise ValueError("cx takes two qubits and no angle")
        elif self.kind == "h":
            if len(self.qubits) != 1 or self.angle is not None:
                raise ValueError("h takes one qubit and no angle")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class GateProgram:
    n_qubits: int
    gates: Tuple[Gate, ...]
    measure_basis: str = "z"   # "x" or "z"

    def __post_init__(self):
        if self.measure_basis not in ("x", "z"):
            raise ValueError(f"measure_basis must be 'x' or 'z', got {self.measure_basis!r}")


def _ising_bond(i: int, j: int, gamma: float) -> List[Gate]:
    """exp(i*gamma*sigma^z_i sigma^z_j) as CX-RZ-CX, control on j."""
    return [
        Gate("cx", (j, i)),
        Gate("rz", (i,), -2.0 * gamma),
        Gate("cx", (j, i)),
    ]


def emit_program(p: QuenchProtocol, n: int, measure_basis: str = "z") -> GateProgram:
    """Gate program for the Trotterized quench on an even-N periodic chain."""
    if p.evolution is not Evolution.TROTTER:
        raise ValueError("emit_program requires a Trotter protocol")
    if n < 2 or n % 2 != 0:
        raise ValueError(f"N must be even and >= 2, got {n}")
    gates: List[Gate] = []
    for t_s in p.step_times():
        sched = schedule_at(p, t_s)
        gamma = p.dt * sched.j
        for i in range(1, n, 2):        # odd bonds first
            gates.extend(_ising_bond(i, (i + 1) % n, gamma))
        for i in range(0, n, 2):        # then even bonds
            gates.extend(_ising_bond(i, i + 1, gamma))
        theta = -2.0 * p.dt * sched.h
        for i in range(n):
            gates.append(Gate("rx", (i,), theta))
    if measure_basis == "x":
        for i in range(n):
            gates.append(Gate("h", (i,)))
    return GateProgram(n_qubits=n, gates=tuple(gates), measure_basis=measure_basis)


def gate_counts(g: GateProgram) -> dict:
    counts: dict = {}
    for gate in g.gates:
        counts[gate.kind] = counts.get(gate.kind, 0) + 1
    return counts


def _fmt_angle(a: float) -> str:
    return repr(float(a))


def to_qasm3(g: GateProgram) -> str:
    """Deterministic OpenQASM 3 text for the program."""
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"qubit[{g.n_qubits}] q;",
        f"bit[{g.n_qubits}] c;",
    ]
    # the protocol's initial state |+>^N
    for i in range(g.n_qubits):
        lines.append(f"h q[{i}];")
    for gate in g.gates:
        if gate.kind in ("rx", "rz"):
            lines.append(f"{gate.kind}({_fmt_angle(gate.angle)}) q[{gate.qubits[0]}];")
        elif gate.kind == "cx":
            lines.append(f"cx q[{gate.qubits[0]}], q[{gate.qubits[1]}];")
        else:
            lines.append(f"h q[{gate.qubits[0]}];")
    lines.append("c = measure q;")
    return "\n".join(lines) + "\n"


_GATE_RE = re.compile(
    r"^(?P<kind>rx|rz|cx|h)(\((?P<angle>[^)]+)\))?\s+"
    r"q\[(?P<q0>\d+)\](,\s*q\[(?P<q1>\d+)\])?;$"
)


def parse_qasm3(text: str) -> GateProgram:
    """Re-parse our own emission subset back into a GateProgram.

    The leading Hadamard layer (state preparation) and a trailing
    Hadamard layer spanning all qubits (X-basis change) are recognized
    structurally.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "OPENQASM 3.0;":
        raise ValueError("not an OpenQASM 3 file from this emitter")
    m = re.match(r"qubit\[(\d+)\] q;", lines[2]) if len(lines) > 2 else None
    if m is None:
        raise ValueError("missing qubit declaration")
    n = int(m.group(1))
    body = lines[4:]
    if body and body[-1] == "c = measure q;":
        body = body[:-1]
    gates: List[Gate] = []
    for ln in body:
        gm = _GATE_RE.match(ln)
        if gm is None:
            raise ValueError(f"unparseable gate line: {ln!r}")
        kind = gm.group("kind")
        if kind == "cx":
            gates.append(Gate("cx", (int(gm.group("q0")), int(gm.group("q1")))))
        elif kind == "h":
            gates.append(Gate("h", (int(gm.group("q0")),)))
        else:
            gates.append(Gate(kind, (int(gm.group("q0")),), float(gm.group("angle"))))
    # strip the state-preparation Hadamard layer
    if len(gates) < n or any(
        g.kind != "h" or g.qubits != (i,) for i, g in enumerate(gates[:n])
    ):
        raise ValueError("missing state-preparation layer")
    gates = gates[n:]
    basis = "z"
    if len(gates) >= n and all(
        g.kind == "h" and g.qubits == (i,)
        for i, g in enumerate(gates[-n:])
    ):
        basis = "x"
    return GateProgram(n_qubits=n, gates=tuple(gates), measure_basis=basis)


def _cx(psi: np.ndarray, n: int, control: int, target: int):
    """CX in place: swap the target-bit halves inside the control = 1 slice."""
    hi, lo = max(control, target), min(control, target)
    bits = psi.reshape(2 ** (n - 1 - hi), 2, 2 ** (hi - lo - 1), 2, 2**lo)
    if control == hi:
        zero, one = bits[:, 1, :, 0], bits[:, 1, :, 1]
    else:
        zero, one = bits[:, 0, :, 1], bits[:, 1, :, 1]
    swap = zero.copy()
    zero[...] = one
    one[...] = swap


def simulate_program(g: GateProgram) -> np.ndarray:
    """Apply the gate list to |+>^N and return the statevector.

    Every gate acts in place on reshaped views of the vector: a one-qubit
    gate on qubit i sees shape (2^(N-1-i), 2, 2^i), whose middle axis is
    bit i.  RZ multiplies the two halves by one phase each, RX and H mix
    them, and CX swaps the target halves inside the control = 1 slice.
    Basis-change Hadamards are part of the gate list, so an X-basis
    program returns the rotated state.
    """
    n = g.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"N = {n} exceeds statevector budget {MAX_QUBITS}")
    psi = np.full(2**n, 1.0 / math.sqrt(2**n), dtype=complex)
    for gate in g.gates:
        if gate.kind == "cx":
            _cx(psi, n, *gate.qubits)
            continue
        i = gate.qubits[0]
        shaped = psi.reshape(2 ** (n - 1 - i), 2, 2**i)
        a, b = shaped[:, 0, :], shaped[:, 1, :]
        if gate.kind == "rz":
            # exp(-i angle Z / 2): bit 0 has Z = +1, bit 1 has Z = -1
            phase = np.exp(-0.5j * gate.angle * np.array([1, -1]))
            a *= phase[0]
            b *= phase[1]
        elif gate.kind == "rx":
            c = math.cos(gate.angle / 2.0)
            s = -1j * math.sin(gate.angle / 2.0)
            a_old = a.copy()
            a *= c
            a += s * b
            b *= c
            b += s * a_old
        else:  # h
            r = 1.0 / math.sqrt(2.0)
            a_old = a.copy()
            a += b
            a *= r
            np.subtract(a_old, b, out=b)
            b *= r
    return psi
