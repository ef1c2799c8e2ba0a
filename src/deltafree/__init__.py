"""Maximum symmetric-difference-free families of subsets of {1, ..., n}:
construction from defining sets, recognition, four-class parity analysis,
exhaustive enumeration at desk scale, and randomized threshold probing."""

from .construction import (
    Generator,
    generate_family,
    is_maximum_family,
    recognize_generator,
)
from .core import (
    MAX_GROUND,
    Family,
    elements_of,
    find_closure_violation,
    find_delta_violation,
    find_quadruple_collision,
    find_union_collision,
    full_word,
    is_delta_closed,
    is_delta_free,
    is_quadruple_delta_free,
    is_union_free,
    validate_ground,
    validate_word,
    word_of,
    xor_pair_counts,
)
from .enumeration import (
    EnumerationReport,
    canonical_form,
    enumerate_maximum_families,
    find_extension,
)
from .experiments import (
    DEFINITIONS,
    ExperimentConfig,
    SurvivalCurve,
    SurvivalPoint,
    estimate_survival,
    random_family,
)
from .partition import (
    CLASS_NAMES,
    equal_split_expected,
    partition_family,
)
from .serialization import (
    FORMAT_TAG,
    family_from_json,
    family_from_lines,
    family_to_json,
    family_to_lines,
    format_element_set,
    parse_element_set,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_GROUND",
    "CLASS_NAMES",
    "DEFINITIONS",
    "FORMAT_TAG",
    "EnumerationReport",
    "ExperimentConfig",
    "Family",
    "Generator",
    "SurvivalCurve",
    "SurvivalPoint",
    "canonical_form",
    "elements_of",
    "enumerate_maximum_families",
    "equal_split_expected",
    "estimate_survival",
    "family_from_json",
    "family_from_lines",
    "family_to_json",
    "family_to_lines",
    "find_closure_violation",
    "find_delta_violation",
    "find_extension",
    "find_quadruple_collision",
    "find_union_collision",
    "format_element_set",
    "full_word",
    "generate_family",
    "is_delta_closed",
    "is_delta_free",
    "is_maximum_family",
    "is_quadruple_delta_free",
    "is_union_free",
    "parse_element_set",
    "partition_family",
    "random_family",
    "recognize_generator",
    "validate_ground",
    "validate_word",
    "word_of",
    "xor_pair_counts",
]
