"""Cross-border financial asset network toolkit.

Builds thresholded directed networks from bilateral asset/GDP panels,
compares them against null-model graph families, measures robustness
under error/attack node knockouts, and simulates loss-given-default
contagion cascades.
"""

from .ingest import (
    AssetPanel,
    AssetSlice,
    DataError,
    GdpPanel,
    core_slice,
    parse_asset_table,
    parse_gdp_table,
)
from .netbuild import (
    DEFAULT_GDP_THRESHOLD,
    BinaryNetwork,
    ThresholdRule,
    average_gdp_exposure,
    weighted_edges,
)
from .metrics import (
    MEASURE_NAMES,
    MeasureVector,
    fraction_spl_le,
    measure_vector,
    modified_aspl,
)
from .nullmodels import (
    DEFAULT_SIGMA_CORRECTION,
    LogNormalFit,
    NullModelSpec,
    estimate_sigma_correction,
    fit_lognormal,
    fit_lognormal_pooled,
    jarque_bera,
    sample_lognormal_slice,
    sample_rewired,
)
from .knockout import (
    CiEntry,
    CiReport,
    CurveSummary,
    KnockoutTrace,
    ci_compare,
    ci_table,
    classify_position,
    ensemble_knockout,
    run_knockout,
)
from .lgd import (
    CascadeResult,
    FineGridCell,
    ImpactSummary,
    LgdSpec,
    cascade,
    enumerate_impacts,
    fine_grid,
    influence_ranking,
    sweep_grid,
)

__version__ = "0.1.0"
