"""Distribution factors for linear (DC) power flow.

Dense, desk-scale implementations of PTDF/LODF/LCDF/PSDF sensitivities and
of low-rank inverse updates for branch modifications, bus merges, bus
splits and simultaneous modification sets, with islanding detection and a
brute-force rebuild oracle for verification.
"""

from .errors import (
    CaseConversionError,
    CaseParseError,
    DegenerateSwitchError,
    GridFactorsError,
    GridStructureError,
    IslandingError,
)
from .grid_model import (
    Branch,
    Bus,
    Grid,
    GroundedSystem,
    IncidenceMatrix,
    LINE,
    PST,
    SWITCH,
    build_grounded_system,
    build_incidence,
    connected_components,
    system_from_inverse,
)
from .case_io import (
    MatpowerCase,
    grid_from_json,
    grid_to_json,
    parse_matpower,
    read_factors,
    to_grid,
    write_factors,
)
from .factors_base import (
    FactorMatrix,
    FlowState,
    compute_flows,
    ptdf_matrix,
    solve_angles,
    solve_flow,
)
from .single_mod import (
    BranchDelta,
    OutageFactors,
    lcdf_column,
    lodf_column,
    outage_factors,
    post_outage_angle_diff,
    ptdf_after_mod,
    updated_inverse,
)
from .pst import effective_injections, psdf_matrix, shift_vector
from .bus_topology import (
    ComposedUpdate,
    SplitSpec,
    TriConfig,
    apply_split,
    bsdf_vector,
    idle_bus_split,
    lodf_after_split,
    merge_inverse,
    merged_ptdf,
    pad_inverse,
    split_inverse,
    split_ptdf,
    switch_flow,
)
from .multi_mod import (
    ModificationSet,
    SwitchKernel,
    SwitchStates,
    multi_merge_inverse,
    multi_merge_ptdf,
    multi_ptdf,
    multi_split_inverse,
    woodbury_update,
    xi_from_states,
)
from .islanding import outage_islands, split_islands, traversal_connectivity
from .oracle import (
    bench_update_vs_rebuild,
    contract_buses,
    pseudo_inverse_check,
    random_grid,
    rebuild_and_solve,
    rebuild_grid,
)

__version__ = "0.1.0"
