"""Exact commutative algebra: Groebner bases, resolutions, Hilbert series, Hom."""

from .groebner import NO_QUOTIENT, BlockBasis, GroebnerEngine, kernel_vectors, minimal_generators
from .hilbert import hilbert_series
from .homs import (
    HomModule,
    contains,
    hom_module,
    image_presentation,
    matrix_rank,
    random_rank,
)
from .modules import (
    FreeModule,
    HilbertSeries,
    ModuleMap,
    ModulePresentation,
    Vector,
    presentation_to_json,
)
from .resolution import free_resolution
from .rings import Polynomial, PolyRing, poly_det
