"""satmetric: survey analytics for service-quality gap studies.

Ingests expectation, perception, and importance-allocation survey
responses and produces reliability-validated gap analyses, Kano-adjusted
improvement priorities, house-of-quality technical rankings, and Pareto
root-cause tables, with deterministic JSON / CSV / Markdown / SVG output.
"""

__version__ = "0.1.0"

from .errors import ComputationError, ConfigError, DataError, DefinitionError, SatmetricError
from .instrument import (
    DIMENSION_ORDER,
    Item,
    KanoCategory,
    LikertScale,
    SurveyInstrument,
    build_instrument,
    load_instrument,
    master_catalog,
    select_items,
    serialize_instrument,
)
from .ingest import (
    IMPORTANCE_COLUMNS,
    MissingPolicy,
    ResponseKind,
    ResponseSet,
    ValidationReport,
    generate_synthetic,
    parse_response_file,
    serialize_response_set,
    validate_importance_row,
)
from .psychometrics import (
    ItemDescriptives,
    OmittedItemStats,
    ReliabilityReport,
    VarianceMode,
    cronbach_alpha,
    item_descriptives,
    omitted_item_stats,
    reliability_gate,
    reliability_report,
)
from .servqual import (
    DimensionScore,
    GapReport,
    ImportanceWeights,
    ItemGap,
    Satisfaction,
    classify_satisfaction,
    compute_gap_report,
    dimension_scores,
    importance_weights,
    item_gaps,
    normalize_weights,
    weights_from_means,
)
from .kano import DEFAULT_MULTIPLIERS, KanoPriority, prioritize
from .qfd import (
    HouseOfQuality,
    TechnicalImportance,
    build_hoq,
    load_hoq,
    roof_conflicts,
)
from .rootcause import (
    Contribution,
    FishboneTree,
    ParetoTable,
    build_fishbone,
    dissatisfaction_contributions,
    load_fishbone,
    pareto,
)
from .report import AnalysisReport, assemble, emit, parse_report, write_report
