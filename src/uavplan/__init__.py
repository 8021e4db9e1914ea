"""Fleet reservation and coded-computation offload planning for UAV
base stations.

Two planning phases over a shared scenario tree: reserve a UAV class
per charging station against weather losses, then split each station's
coded task copies between onboard computation and subscribed edge
servers under demand and copy-shortfall uncertainty. Both phases are
solved exactly on one time slot's program that every slot repeats:
phase 1 in closed form, one choice per station; phase 2 with the
bundled branch-and-bound integer programming kernel.
"""

from .coding import (
    CodeSplit,
    FractionalSplit,
    SymbolCounts,
    fractional_split,
    optimal_split,
    recovery_threshold,
    symbol_counts,
)
from .costs import (
    CopyPrices,
    CostCoefficients,
    copy_prices,
    on_demand_cost,
    reservation_cost,
)
from .milp import (
    IPModel,
    LinearConstraint,
    Solution,
    SolverError,
    VariableDef,
    solve_enumerate,
    solve_exact,
    solve_lp_relaxation,
)
from .physics import (
    Environment,
    Position3D,
    TaskTimings,
    UavType,
    db_to_linear,
    dbm_to_watts,
    hover_power,
    link_rate,
    propulsion_power,
    task_timings,
)
from .evaluate import (
    SWEEP_PARAMETERS,
    offload_price_comparison,
    sweep,
)
from .io import (
    InputError,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    read_demand_csv,
    write_csv_atomic,
    write_demand_csv,
    write_json_atomic,
)
from .planner import (
    BaseStation,
    InfeasibleModelError,
    NetworkInstance,
    Phase1Plan,
    Phase2Plan,
    PlanningError,
    ResourceLimitError,
    StageDecision,
    Station,
    build_phase1,
    build_phase2_dip,
    build_phase2_sip,
    evf_plan,
    exact_expected_cost,
    offload_curve,
    plan_both_phases,
    solve_phase1,
    solve_phase2,
)
from .scenario import (
    DemandHistogram,
    DemandScenario,
    ModelSize,
    ScenarioTree,
    ShortfallScenario,
    WeatherScenario,
    demand_hist_from_csv,
    enumerate_terminal_paths,
    flag_product_exposure,
    max_total_exposure,
    model_size_phase1,
    model_size_phase2,
    validate_tree,
)

__version__ = "0.1.0"
