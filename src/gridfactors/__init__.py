"""Distribution factors for linear (DC) power flow.

Dense, desk-scale implementations of PTDF/LODF/LCDF/PSDF sensitivities and
of low-rank inverse updates for branch modifications, bus merges, bus
splits and simultaneous modification sets, with islanding detection and a
brute-force rebuild oracle for verification.

The names below are resolved on first access (PEP 562), so importing the
package, or one module of it such as the command line, loads only the
modules that are used.
"""

import importlib

_EXPORTS = {
    "errors": (
        "CaseConversionError",
        "CaseParseError",
        "DegenerateSwitchError",
        "GridFactorsError",
        "GridStructureError",
        "IslandingError",
    ),
    "grid_model": (
        "Branch",
        "Bus",
        "Grid",
        "GroundedSystem",
        "IncidenceMatrix",
        "LINE",
        "PST",
        "SWITCH",
        "build_grounded_system",
        "build_incidence",
        "connected_components",
        "system_from_inverse",
    ),
    "case_io": (
        "MatpowerCase",
        "grid_from_json",
        "grid_to_json",
        "parse_matpower",
        "read_factors",
        "to_grid",
        "write_factors",
    ),
    "factors_base": (
        "FactorMatrix",
        "FlowState",
        "compute_flows",
        "ptdf_matrix",
        "solve_angles",
        "solve_flow",
    ),
    "single_mod": (
        "BranchDelta",
        "OutageFactors",
        "lcdf_column",
        "lodf_column",
        "outage_factors",
        "outage_peaks",
        "post_outage_angle_diff",
        "ptdf_after_mod",
        "updated_inverse",
    ),
    "pst": ("effective_injections", "psdf_matrix", "shift_vector"),
    "bus_topology": (
        "ComposedUpdate",
        "SplitSpec",
        "TriConfig",
        "apply_split",
        "bsdf_vector",
        "idle_bus_split",
        "lodf_after_split",
        "merge_inverse",
        "merged_ptdf",
        "pad_inverse",
        "split_inverse",
        "split_ptdf",
        "switch_flow",
    ),
    "multi_mod": (
        "ModificationSet",
        "SwitchKernel",
        "SwitchStates",
        "multi_merge_inverse",
        "multi_merge_ptdf",
        "multi_ptdf",
        "multi_split_inverse",
        "woodbury_update",
        "xi_from_states",
    ),
    "islanding": ("outage_islands", "split_islands", "traversal_connectivity"),
    "oracle": (
        "bench_update_vs_rebuild",
        "contract_buses",
        "pseudo_inverse_check",
        "random_grid",
        "rebuild_and_solve",
        "rebuild_grid",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
