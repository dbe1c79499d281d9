"""Kibble-Zurek quench dynamics of the transverse-field Ising chain.

Per-mode Bloch dynamics under nondemolition decoherence, Pfaffian spin
correlators, scaling-exponent data collapse, Trotter circuit emission,
and a dense small-N oracle.
"""

from .protocol import (
    Evolution,
    MomentumGrid,
    PseudoField,
    QuenchProtocol,
    Variant,
    momentum_grid,
    pseudo_field,
    schedule_at,
)
from .mode_dynamics import (
    ModeEnsemble,
    evolve_continuous,
    ground_state_bloch,
    run_quench,
    trotter_step_mode,
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
    magnetization_se,
    power_law_fit,
    residual_energy,
    shot_error_floor,
    total_energy,
)
from .collapse import (
    CollapseResult,
    CorrelationDataset,
    GridSpec,
    exponent_sweep,
    fit_exp_poly,
    rescale,
)

__version__ = "0.1.0"
