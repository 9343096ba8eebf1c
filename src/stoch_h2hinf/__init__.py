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
    values_from_q,
    vech,
    vecs,
)
from .gare import (
    SolveReport,
    closed_loop_pair,
    gains_from_values,
    gare_residuals,
    ms_radius,
    ms_stable,
    random_feasible_system,
    solve_coupled_gare,
    solve_coupled_gare_pi,
    vi_value_update,
)
from .sim import (
    NoiseSource,
    Trajectory,
    empirical_attenuation,
    simulate_closed_loop,
    simulate_to_csv,
    stage_costs,
    step,
)
from .qlearn import (
    Iterate,
    ProbingSchedule,
    QLearnReport,
    SystemOracle,
    TrajectoryOracle,
    least_squares_h,
    run_q_learning,
    run_value_iteration,
    write_matrix_txt,
)
from .f16 import f16_initial_gains, f16_reference, f16_system

# the imports above are the public names; submodules bound by them are not
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
