"""Pseudo-spectral lab for 2D generalized MHD with fractional dissipation.

Submodules:
    spectral      grids, the one real transform pair, half-spectrum fields
                  and the one Parseval sum (every spectrum is a half spectrum)
    dynamics      the (omega, a) solver: tendencies, IF-RK4 stepping, runs
    diagnostics   per-state records, conservation audits, CSV round trip
    analysis      regime classifier, exponent algebra, Gronwall audit
    inequalities  interpolation-inequality corpus and positivity checks
    config        run-configuration file grammar
    cli           command-line harness (run / scan / verify / classify)
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    Grid,
    ParameterError,
    fractional_power,
    get_grid,
    half_power_sum,
    lp_norm,
    random_band_limited_field,
    spectral_l2,
    to_physical,
    to_spectral,
)
from .dynamics import (  # noqa: F401
    INITIAL_KINDS,
    BlowUpSignal,
    CancellationReport,
    GmhdState,
    Params,
    ResidualReport,
    RunResult,
    advection_cancellations,
    cfl_dt,
    current_identity_residual,
    forcing_identity_residual,
    initial_condition,
    load_snapshot,
    nonlinear_rhs,
    run,
    save_snapshot,
    step,
)
from .diagnostics import (  # noqa: F401
    CSV_BASE_COLUMNS,
    DiagnosticsRecord,
    DirectionFieldNorms,
    LpBoundReport,
    compute_record,
    direction_field_norms,
    energy_balance_residual,
    lp_vorticity_bound_check,
    read_csv,
    write_csv,
)
from .analysis import (  # noqa: F401
    GronwallReport,
    RegimeVerdict,
    WeakDissipationExponents,
    classify_regime,
    fit_gronwall_constant,
    gronwall_check,
    verdict_ranks,
    weak_dissipation_exponents,
)
from .inequalities import (  # noqa: F401
    DEFAULT_INEQUALITY_SPECS,
    DEFAULT_RESOLUTIONS,
    ConstantReport,
    Corpus,
    InequalitySpec,
    NormTerm,
    PositivityReport,
    check_inequalities,
    check_inequality,
    check_positivity,
    evaluate_norm,
    log_inequality_check,
)
from .config import (  # noqa: F401
    InitialSpec,
    RunConfig,
    load_run_config,
    make_initial_state,
    parse_run_config,
)
from .cli import main  # noqa: F401
