"""Layer boundaries the traced run wraps, and the per-layer metrics.

Every entry of TARGETS is one public function of a detlab layer module (or a
method of its public engine class) with the span name it is recorded under.
Exact counters come from hooks that look at the call's arguments and result.
"""

from __future__ import annotations

import json
import weakref
from fractions import Fraction

# (module, qualified name, span name)
TARGETS = [
    ("detlab.partitions", "weyl_dim", "partitions.weyl_dim"),
    ("detlab.partitions", "enumerate_box", "partitions.enumerate_box"),
    ("detlab.schurcalc", "tensor_weights", "schurcalc.tensor_weights"),
    ("detlab.schurcalc", "lr_coefficients", "schurcalc.lr_coefficients"),
    ("detlab.schurcalc", "cauchy_expand", "schurcalc.cauchy_expand"),
    ("detlab.schurcalc", "schur_character", "schurcalc.schur_character"),
    ("detlab.bott", "bott_cohomology", "bott.bott_cohomology"),
    ("detlab.bott", "cohomology_of", "bott.cohomology_of"),
    ("detlab.bott", "check_hom_vanishing", "bott.check_hom_vanishing"),
    ("detlab.bott", "check_tilting_grass", "bott.check_tilting_grass"),
    ("detlab.bott", "check_tilting_springer", "bott.check_tilting_springer"),
    ("detlab.bott", "check_dualizing_vanishing", "bott.check_dualizing_vanishing"),
    ("detlab.bott", "check_fm_kernel", "bott.check_fm_kernel"),
    ("detlab.commalg.groebner", "GroebnerEngine.reduce_terms", "groebner.reduce"),
    ("detlab.commalg.groebner", "GroebnerEngine.complete", "groebner.complete"),
    ("detlab.commalg.groebner", "kernel_vectors", "groebner.kernel_vectors"),
    ("detlab.commalg.groebner", "minimal_generators", "groebner.minimal_generators"),
    ("detlab.commalg.groebner", "groebner", "groebner.groebner"),
    ("detlab.commalg.resolution", "free_resolution", "resolution.free_resolution"),
    ("detlab.commalg.hilbert", "hilbert_series", "hilbert.hilbert_series"),
    ("detlab.commalg.homs", "hom_module", "homs.hom_module"),
    ("detlab.commalg.homs", "membership_engine", "homs.membership_engine"),
    ("detlab.detvar", "generic_setup", "detvar.generic_setup"),
    ("detlab.detvar", "wedge_module", "detvar.wedge_module"),
    ("detlab.detvar", "certify_mcm", "detvar.certify_mcm"),
    ("detlab.detvar", "rank_check", "detvar.rank_check"),
    ("detlab.detvar", "endomorphism_ring", "detvar.endomorphism_ring"),
    ("detlab.detvar", "certify_end_mcm", "detvar.certify_end_mcm"),
    ("detlab.detvar", "check_flip", "detvar.check_flip"),
    ("detlab.detvar", "check_end_dual", "detvar.check_end_dual"),
]

# per-layer metric -> (unit, better); the order is the report order
PER_LAYER = {
    "detvar.generic_setup.self_s": ("s", "lower"),
    "detvar.wedge_module.calls": ("count", "lower"),
    "detvar.wedge_module.self_s": ("s", "lower"),
    "resolution.free_resolution.calls": ("count", "lower"),
    "resolution.free_resolution.self_s": ("s", "lower"),
    "resolution.betti_total": ("count", "lower"),
    "groebner.kernel_vectors.calls": ("count", "lower"),
    "groebner.kernel_vectors.self_s": ("s", "lower"),
    "groebner.minimal_generators.self_s": ("s", "lower"),
    "groebner.complete.self_s": ("s", "lower"),
    "groebner.reduce.calls": ("count", "lower"),
    "groebner.reduce.self_s": ("s", "lower"),
    "groebner.reduce.useful_ratio": ("ratio", "higher"),
    "groebner.basis_elements": ("count", "lower"),
    "homs.hom_module.calls": ("count", "lower"),
    "homs.hom_module.self_s": ("s", "lower"),
    "homs.hom_module.distinct_ratio": ("ratio", "higher"),
    "homs.membership_engine.calls": ("count", "lower"),
    "hilbert.hilbert_series.calls": ("count", "lower"),
    "hilbert.hilbert_series.self_s": ("s", "lower"),
    "rings.coeff_bits.max": ("bits", "lower"),
    "bott.cohomology_of.calls": ("count", "lower"),
    "bott.cohomology_of.self_s": ("s", "lower"),
    "bott.bott_cohomology.calls": ("count", "lower"),
    "bott.bott_cohomology.nonzero_ratio": ("ratio", "higher"),
    "schurcalc.tensor_weights.calls": ("count", "lower"),
    "schurcalc.tensor_weights.self_s": ("s", "lower"),
    "schurcalc.tensor_weights.distinct_ratio": ("ratio", "higher"),
    "schurcalc.lr_coefficients.calls": ("count", "lower"),
    "schurcalc.lr_coefficients.self_s": ("s", "lower"),
    "schurcalc.cauchy_expand.calls": ("count", "lower"),
    "schurcalc.schur_character.self_s": ("s", "lower"),
    "partitions.weyl_dim.calls": ("count", "lower"),
    "partitions.enumerate_box.calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(int(c)).bit_length()


def _presentation_key(pres, to_json) -> str:
    return json.dumps(to_json(pres), sort_keys=True, separators=(",", ":"))


def _weight_key(w) -> tuple:
    return tuple(w.entries) if hasattr(w, "entries") else tuple(w)


class Counters:
    """Exact counts gathered by the hooks; `hooks()` maps span names to them."""

    def __init__(self, presentation_to_json):
        self._to_json = presentation_to_json
        self.reduce_nonzero = 0
        self.basis_elements = 0
        self.coeff_bits_max = 0
        self._bits_scanned: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.betti_total = 0
        self.hom_keys: set[str] = set()
        self.tensor_keys: set[tuple] = set()
        self.bott_nonzero = 0

    def hooks(self) -> dict:
        return {
            "groebner.reduce": self._reduce,
            "groebner.complete": self._complete,
            "resolution.free_resolution": self._resolution,
            "homs.hom_module": self._hom,
            "schurcalc.tensor_weights": self._tensor,
            "bott.bott_cohomology": self._bott,
        }

    def _reduce(self, args, kwargs, result):
        if result:
            self.reduce_nonzero += 1

    def _complete(self, args, kwargs, result):
        engine = args[0]
        basis = engine.basis
        self.basis_elements += len(basis)
        # the basis only grows, so each element is scanned once per engine
        start = self._bits_scanned.get(engine, 0)
        for elt in basis[start:]:
            for c in elt.terms.values():
                bits = _coeff_bits(c)
                if bits > self.coeff_bits_max:
                    self.coeff_bits_max = bits
        self._bits_scanned[engine] = len(basis)

    def _resolution(self, args, kwargs, result):
        self.betti_total += sum(result.betti_ranks())

    def _hom(self, args, kwargs, result):
        m, n = args[0], args[1]
        self.hom_keys.add(
            _presentation_key(m, self._to_json) + "|" + _presentation_key(n, self._to_json)
        )

    def _tensor(self, args, kwargs, result):
        x, y, l = args
        self.tensor_keys.add((_weight_key(x), _weight_key(y), l))

    def _bott(self, args, kwargs, result):
        if not result.is_zero():
            self.bott_nonzero += 1


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, counters: Counters, overhead_s: float) -> dict:
    calls, self_s = tracer.calls, tracer.self_s
    values = {
        "resolution.betti_total": counters.betti_total,
        "groebner.reduce.useful_ratio": _ratio(
            counters.reduce_nonzero, calls["groebner.reduce"]
        ),
        "groebner.basis_elements": counters.basis_elements,
        "homs.hom_module.distinct_ratio": _ratio(
            len(counters.hom_keys), calls["homs.hom_module"]
        ),
        "rings.coeff_bits.max": counters.coeff_bits_max,
        "bott.bott_cohomology.nonzero_ratio": _ratio(
            counters.bott_nonzero, calls["bott.bott_cohomology"]
        ),
        "schurcalc.tensor_weights.distinct_ratio": _ratio(
            len(counters.tensor_keys), calls["schurcalc.tensor_weights"]
        ),
        "trace.overhead_s": overhead_s,
        "trace.spans": tracer.span_count,
    }
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            value = self_s[name[: -len(".self_s")]]
        else:
            raise KeyError(name)
        out[name] = {"value": value, "unit": unit}
    return out
