"""Bounds, constructions and exact search for k-neighborly families of boxes.

The working model is the joker-vector one: n(k,d) is the maximum number of
words over {0,1,*} of length d whose pairwise Hamming distances (ignoring
joker positions) all lie in {1, ..., k}.  The package computes every known
bound formula exactly, generates the extremal constructions, audits the
weighted-cover machinery behind the bounds on concrete families, and runs
a branch-and-bound clique search that certifies small exact values.
"""

from .bounds import (
    BoundReport,
    agkp_upper,
    alon_lower,
    alon_upper,
    b_config_size,
    best_new_upper,
    g_function,
    huang_sudakov_upper,
    kleitman_bound,
    main2_upper,
    main_upper,
    refined_upper,
    report,
    stability_bound,
)
from .core import (
    Family,
    JokerVector,
    complement,
    covers,
    hamming_distance,
    is_k_neighborly,
    join,
)
from .analysis import AuditReport, CoverProfile, audit, cover_profile, weight
from .constructions import (
    alon_product,
    b_config,
    b_config_family,
    extremal_dminus1_family,
    hamming_ball,
    staircase_code,
)
from .errors import (
    DimensionError,
    DomainError,
    InconsistencyError,
    NeighborlyError,
    ParseError,
    ResourceError,
    ValidationError,
)
from .search import (
    Budget,
    Certification,
    CompatGraph,
    SearchResult,
    build_graph,
    certify,
    max_family,
)

__version__ = "0.1.0"
