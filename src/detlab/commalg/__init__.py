"""Exact commutative algebra: Groebner bases, resolutions, Hilbert series, Hom."""

from .groebner import (
    GroebnerEngine,
    elim_key,
    grevlex_key,
    groebner,
    groebner_ideal,
    kernel_vectors,
    minimal_generators,
    top_key,
)
from .hilbert import free_module_series, hilbert_series
from .homs import (
    HomModule,
    hom_module,
    matrix_rank,
    membership_engine,
    random_rank,
)
from .modules import (
    FreeModule,
    HilbertSeries,
    ModuleMap,
    ModulePresentation,
    Vector,
    map_from_json,
    map_to_json,
    poly_from_json,
    poly_to_json,
    presentation_from_json,
    presentation_to_json,
    ring_from_json,
    ring_to_json,
)
from .resolution import Resolution, free_resolution
from .rings import Polynomial, PolyRing, poly_det
