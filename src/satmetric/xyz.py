"""Bundled XYZ computer-maintenance case study.

Carries the published survey aggregates for a small computer-maintenance
shop: per-item expectation and perception totals over 81 respondents, mean
importance allocations over 82 respondents, the 17-item instrument, and
example house-of-quality and fishbone definition files.  Used by the demo
scripts and the regression suite; handy as a worked end-to-end example.
"""

from __future__ import annotations

from importlib import resources

from .instrument import SurveyInstrument, build_instrument, master_catalog, select_items
from .psychometrics import ItemDescriptives
from .qfd import HouseOfQuality, build_hoq
from .rootcause import FishboneTree, build_fishbone
from .schema import parse_json
from .servqual import ImportanceWeights, weights_from_means

#: Catalog keys of the 17 items the case study retained, in survey order
#: (reliability 1-2, responsiveness 3-5, assurance 6-9, empathy 10-14,
#: tangibles 15-17).
ITEM_KEYS: tuple[str, ...] = (
    "service-right-first-time",
    "service-at-promised-time",
    "employee-attitude",
    "response-speed",
    "employee-availability",
    "customer-information-safety",
    "reasonable-repair-cost",
    "employee-courtesy",
    "employee-knowledge",
    "operating-hours-convenience",
    "service-location-convenience",
    "personal-attention",
    "communication-language-simplicity",
    "understanding-customer-needs",
    "employees-appearances",
    "waiting-room-comfort",
    "equipment-visual-aspect",
)

#: Respondent counts: the two Likert surveys and the importance allocation.
N_LIKERT = 81
N_IMPORTANCE = 82

#: Integer column totals for the two Likert surveys (mean = total / 81).
EXPECTATION_TOTALS: tuple[int, ...] = (
    356, 348, 330, 352, 343, 339, 340, 331, 305, 311, 278, 282, 286, 302, 278, 338, 290,
)
PERCEPTION_TOTALS: tuple[int, ...] = (
    360, 350, 260, 261, 289, 355, 250, 263, 281, 342, 344, 240, 310, 226, 327, 306, 313,
)

#: Total points allocated per dimension across the 82 importance responses
#: (mean = total / 82).  The means sum to ~100.061, a drift the source data
#: carries; reports surface it as a warning.
IMPORTANCE_TOTALS: dict[str, int] = {
    "reliability": 3255,
    "responsiveness": 1820,
    "assurance": 1380,
    "empathy": 1030,
    "tangibles": 720,
}

#: Published per-item variances, carried as informational fixture values
#: (the expectation column follows the population convention on the
#: underlying integer data; the perception column is reported as-is).
EXPECTATION_VARIANCES: tuple[float, ...] = (
    0.263679317, 0.356652949, 0.537722908, 0.349641823, 0.500533455,
    0.471879287, 0.55357415, 0.375247676, 0.377076665, 0.554488645,
    0.319463496, 0.545953361, 0.446578266, 0.370675202, 0.344154854,
    0.365188234, 0.367017223,
)
PERCEPTION_VARIANCES: tuple[float, ...] = (
    0.35628858, 0.5, 0.573302469, 0.548611111, 0.582561728,
    0.484375, 0.520833333, 0.722029321, 0.638888889, 0.430362654,
    0.50617284, 0.527006173, 0.620177469, 0.583333333, 0.513695988,
    0.637152778, 0.629436728,
)


def xyz_instrument() -> SurveyInstrument:
    """The 17-item case-study instrument, selected from the master catalog."""
    return select_items(master_catalog(), ITEM_KEYS)


def expectation_means() -> list[float]:
    return [total / N_LIKERT for total in EXPECTATION_TOTALS]


def perception_means() -> list[float]:
    return [total / N_LIKERT for total in PERCEPTION_TOTALS]


def importance_means() -> dict[str, float]:
    return {dim: total / N_IMPORTANCE for dim, total in IMPORTANCE_TOTALS.items()}


def xyz_weights() -> ImportanceWeights:
    return weights_from_means(importance_means(), n_respondents=N_IMPORTANCE)


def _descriptives(totals, variances) -> list[ItemDescriptives]:
    return [ItemDescriptives(item_id=i, mean=total / N_LIKERT, variance=var, n=N_LIKERT)
            for i, (total, var) in enumerate(zip(totals, variances), start=1)]


def expectation_descriptives() -> list[ItemDescriptives]:
    """Descriptives fixture built from the published aggregates."""
    return _descriptives(EXPECTATION_TOTALS, EXPECTATION_VARIANCES)


def perception_descriptives() -> list[ItemDescriptives]:
    return _descriptives(PERCEPTION_TOTALS, PERCEPTION_VARIANCES)


def _load_data(name: str) -> dict:
    return parse_json(resources.files("satmetric.data").joinpath(name).read_bytes(), name)


def load_xyz_instrument_definition() -> dict:
    """The shipped instrument definition document (JSON shape)."""
    return _load_data("xyz_instrument.json")


def load_xyz_instrument_from_file() -> SurveyInstrument:
    return build_instrument(load_xyz_instrument_definition())


def load_xyz_hoq() -> HouseOfQuality:
    """Example house of quality: the five dimensions against twenty
    technical characteristics, encoding only the published rank-order
    claims (repair-work quality first, equipment appearance last)."""
    return build_hoq(_load_data("xyz_hoq.json"))


def load_xyz_fishbone() -> FishboneTree:
    """Example cause-and-effect tree with the five published branches."""
    return build_fishbone(_load_data("xyz_fishbone.json"))
