"""Mixed H2/Hinf control of stochastic discrete-time linear systems.

Model-based coupled-Riccati value iteration and model-free Q-learning from
simulated trajectories, with the F-16 multiplicative-noise benchmark.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .model import (
    AlgoConfig,
    AttenuationInfeasibleError,
    ConfigError,
    ConvergenceError,
    CostSpec,
    DivergenceError,
    ExcitationError,
    GainExtractionError,
    GainPair,
    QPair,
    SdltiSystem,
    ValuePair,
    validate_system,
)
from .qfunction import (
    gains_from_q,
    h_from_values,
    mat_from_vecs,
    q_value,
    stack_input,
    values_from_q,
    vech,
    vecs,
)
from .gare import (
    SolveReport,
    closed_loop_pair,
    closed_loop_quadratic_map,
    fixed_policy_value_sequence,
    gains_from_values,
    gare_residuals,
    ms_radius,
    ms_stable,
    qlearn_value_update,
    random_feasible_system,
    solve_coupled_gare,
    vi_value_update,
)
from .sim import (
    NoiseSource,
    Trajectory,
    empirical_attenuation,
    expected_next_quadratic,
    simulate_closed_loop,
    stage_costs,
    step,
)
from .qlearn import (
    Iterate,
    ProbingSchedule,
    QLearnReport,
    SystemOracle,
    TrajectoryOracle,
    bellman_targets,
    least_squares_h,
    probed_inputs,
    probing_noise,
    run_q_learning,
    run_value_iteration,
    termination,
    write_matrix_txt,
)
from .f16 import f16_initial_gains, f16_reference, f16_system

# the imports above are the public names; submodules bound by them are not
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
