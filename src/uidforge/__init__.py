"""uidforge: demographic projection and identity-card demand forecasting.

Library layout:

- :mod:`uidforge.core` — age axis, regions, pyramids, survival and
  fertility schedules.
- :mod:`uidforge.projection` — births, cohort survival, projection loop.
- :mod:`uidforge.ledger` — macro/micro card-flow models, the age-15
  re-issuance procedure, card returns and the annual demand series.
- :mod:`uidforge.coverage` — census coverage corrections.
- :mod:`uidforge.bayes` — posterior demand intensity (Metropolis sampler
  plus conjugate closed form).
- :mod:`uidforge.csvio` / :mod:`uidforge.cli` — file formats and the
  command-line tool.
"""

from .bayes import (
    ChainSummary,
    DemandObservation,
    PosteriorChain,
    PriorSpec,
    conjugate_posterior,
    log_posterior_unnormalized,
    metropolis_sample,
    summarize_chain,
)
from .core import (
    AgeAxis,
    AgePyramid,
    FertilityConfig,
    RegionId,
    RegionLevel,
    Sex,
    SurvivalSchedule,
    multi_year_survival,
    validate_pyramid,
)
from .coverage import (
    CoverageConfig,
    DualSystemCounts,
    add_enumeration_segments,
    allocate_unknown_age,
    apply_omission_adjustment,
    dual_system_estimate,
)
from .errors import (
    AllocationError,
    ConsistencyError,
    DataError,
    DomainError,
    InitializationError,
    InsufficientDataError,
    ParseError,
    UidforgeError,
    UndefinedEstimateError,
)
from .ledger import (
    CardLedger,
    DemandRow,
    DemandSeries,
    IssuancePolicy,
    StateFlows,
    StateRates,
    age15_transition,
    annual_card_requirement_series,
    counts_from_rates,
    macro_net_card_change,
    macro_new_card_demand,
    micro_net_card_change,
    micro_new_card_demand,
    process_card_returns,
    run_card_simulation,
)
from .projection import (
    BirthCount,
    ProjectionSeries,
    age_group_survivors,
    apply_infant_survival,
    project_births,
    project_population,
    survive_cohorts,
)

__version__ = "0.1.0"
