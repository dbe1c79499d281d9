"""Scalar diagnostics for quench runs.

Defect density, total and residual energy, excess energy against a paired
closed-system run, and log-log power-law exponent fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .correlators import (FermionCorrelators, fermion_correlators,
                          magnetization_x, zz_connected)
from .mode_dynamics import ModeEnsemble
from .protocol import QuenchProtocol, pseudo_field_components

__all__ = [
    "RunRecord",
    "defect_density",
    "total_energy",
    "residual_energy",
    "excess_energy",
    "power_law_fit",
]


@dataclass
class RunRecord:
    """Per-sample-time scalar observables of one quench run, with the
    Majorana tables of each sample for the correlator profiles.  Each
    sample dict holds the columns of observables.csv in their order."""

    protocol: QuenchProtocol
    n_sites: int
    lam: float
    samples: List[Dict] = field(default_factory=list)
    tables: List[FermionCorrelators] = field(default_factory=list, repr=False)

    def add_sample(self, t: float, m_x: float, n_def: float,
                   e_total: float, e_res: float,
                   e_exc: Optional[float] = None):
        if e_res < -1e-9:
            raise ValueError(f"residual energy {e_res} below tolerance floor")
        self.samples.append({
            "tau_q": self.protocol.tau_q, "lam": self.lam,
            "t": t, "m_x": m_x, "n_def": n_def,
            "e_total": e_total, "e_res": e_res, "e_exc": e_exc,
        })


def defect_density(fc: FermionCorrelators) -> float:
    """Fraction of misaligned nearest-neighbor bonds, (1 - <zz>_1)/2."""
    return 0.5 * (1.0 - zz_connected(fc, 1))


def total_energy(e: ModeEnsemble) -> float:
    """Energy <H> of the reduced (even-parity) chain at the sample time.

    The Nambu expectation contributes -h_k . n_k per positive mode; the
    sign is pinned by requiring the ground-state ensemble to reproduce the
    exact vacuum energy (asserted in the test suite).
    """
    hy, hz = pseudo_field_components(e.grid.modes, e.j, e.h)
    dot = hy * e.states[:, 1] + hz * e.states[:, 2]
    return float(-e.n_sites * e.h + np.sum(hz) - np.sum(dot))


def residual_energy(e: ModeEnsemble) -> float:
    """Energy above the instantaneous ground state, sum(|h_k| - h_k . n_k)."""
    hy, hz = pseudo_field_components(e.grid.modes, e.j, e.h)
    mod = np.sqrt(hy**2 + hz**2)
    dot = hy * e.states[:, 1] + hz * e.states[:, 2]
    return float(np.sum(mod - dot))


def excess_energy(noisy: ModeEnsemble, clean: ModeEnsemble) -> float:
    """Energy-density surplus of a decohered run over its closed twin."""
    if clean.lam != 0.0:
        raise ValueError("reference run must have lam = 0")
    if noisy.n_sites != clean.n_sites:
        raise ValueError("mismatched system sizes")
    if not math.isclose(noisy.t, clean.t, rel_tol=0, abs_tol=1e-12):
        raise ValueError("mismatched sample times")
    if noisy.protocol != clean.protocol:
        raise ValueError("mismatched protocols")
    return (total_energy(noisy) - total_energy(clean)) / noisy.n_sites


def power_law_fit(points: Sequence[Tuple[float, float]]):
    """Fit y = amplitude * tau^(-beta) by least squares in log-log space.

    Returns (amplitude, beta, rmse_log).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 (tau_q, y) points")
    tau, y = pts[:, 0], pts[:, 1]
    if np.any(y <= 0) or np.any(tau <= 0):
        raise ValueError("power_law_fit requires positive values")
    lt, ly = np.log(tau), np.log(y)
    slope, intercept = np.polyfit(lt, ly, 1)
    resid = ly - (slope * lt + intercept)
    rmse = float(np.sqrt(np.mean(resid**2)))
    return float(np.exp(intercept)), float(-slope), rmse


def run_record(ensembles: Sequence[ModeEnsemble], protocol: QuenchProtocol,
               clean: Optional[Sequence[ModeEnsemble]] = None) -> RunRecord:
    """Assemble the scalar observable record for a run.

    Each sample's Majorana tables are built once; they give m_x and the
    defect density here and are kept on the record (tables) for the
    correlator profiles, which this function does not compute.  clean,
    when given, must be the matching lam = 0 run and fills the
    excess-energy column.
    """
    first = ensembles[0]
    rec = RunRecord(protocol=protocol, n_sites=first.n_sites, lam=first.lam)
    for i, e in enumerate(ensembles):
        fc = fermion_correlators(e)
        e_exc = None
        if clean is not None:
            e_exc = excess_energy(e, clean[i])
        rec.add_sample(
            t=e.t,
            m_x=magnetization_x(fc),
            n_def=defect_density(fc),
            e_total=total_energy(e),
            e_res=residual_energy(e),
            e_exc=e_exc,
        )
        rec.tables.append(fc)
    return rec
