"""hystctl: simulation and verification toolkit for driftless control-affine
systems with rate-independent hysteresis (play operator, delayed relays,
relay banks)."""

# Set before the submodule imports: experiments reads it while the package
# is still initialising.
__version__ = "0.1.0"

from .signals import (
    DomainError,
    PolylineSignal,
    StepSignal,
    TimeGrid,
    antiderivative,
    derivative,
    l1_distance,
    sample,
    sup_distance,
)
from .hysteresis import (
    PlayState,
    RelayBank,
    RelayState,
    SwitchEvent,
    bank_trace,
    play_apply,
    play_update,
    truncated_play_apply,
)
from .constructions import (
    align_schedule,
    build_uk,
    build_vj,
    build_vk,
    chain_schedule,
    heis_exact_schedule,
    heisenberg_loop,
    plan_triangular,
    play_inverse_exact,
    thm3_schedule,
)
from .dynamics import (
    BankSpec,
    DivergenceError,
    FieldSet,
    SwitchingSpec,
    Trajectory,
    TriangularSpec,
    gronwall_bound,
    heisenberg_fields,
    integrate_bank,
    integrate_plain,
    integrate_play_controls,
    integrate_play_state,
    integrate_switching,
)
from .experiments import ExperimentReport, run_experiment
