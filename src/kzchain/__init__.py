"""Kibble-Zurek quench dynamics of the transverse-field Ising chain.

Per-mode Bloch dynamics under nondemolition decoherence, Pfaffian spin
correlators, scaling-exponent data collapse, Trotter circuit emission,
and a dense small-N oracle.
"""

from .protocol import (
    Evolution,
    MomentumGrid,
    QuenchProtocol,
    Variant,
    momentum_grid,
    schedule_at,
)
from .mode_dynamics import (
    ModeEnsemble,
    evolve_continuous,
    run_quench,
)
from .correlators import (
    FermionCorrelators,
    ZZProfiles,
    fermion_correlators,
    magnetization_x,
    xx_connected,
    xx_connected_profiles,
    zz_connected,
    zz_connected_profile,
    zz_connected_profiles,
)
from .pfaffian import pfaffian
from .observables import (
    defect_density,
    excess_energy,
    power_law_fit,
    residual_energy,
    total_energy,
)
from .collapse import (
    CollapseResult,
    CorrelationDataset,
    exponent_sweep,
    fit_exp_poly,
    rescale,
)

__version__ = "0.1.0"
