"""Hom modules of finitely presented graded modules, duals, and rank oracles.

Hom(M, N) is the kernel of composition with M's relations inside
Hom(F0_M, N) = N^{a0}.  Concretely: a homomorphism is a tuple of vectors
(v_1, ..., v_a0) in the generator module of N, one per generator of M,
subject to every relation of M landing in the relation submodule of N.  The
ambient free module is indexed by pairs (M-generator, N-generator), flattened
M-major, with basis degree deg_N(i) - deg_M(k).

Every quotient-module job of detlab has one path here: N's relation basis
stands for N^k's as one `BlockBasis`, `image_presentation` presents the
image of a map into a quotient, and `contains` decides submodule membership
by normal forms against a completed `groebner.membership_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

from .groebner import NO_QUOTIENT, BlockBasis, kernel_vectors, membership_engine, minimal_generators
from .modules import FreeModule, ModuleMap, ModulePresentation, Vector
from .rings import PolyRing


@dataclass
class HomModule(ModulePresentation):
    """Presentation of Hom(M, N) with the ambient bookkeeping kept around.

    `hom_generators` are the generators as vectors in the ambient free module
    F^{a0} (F the generator module of N); the relations are among those
    generators.
    """

    ambient: FreeModule
    hom_generators: list[Vector]


def _ambient(M: ModulePresentation, N: ModulePresentation) -> FreeModule:
    degs = []
    for dk in M.gen_degrees:
        for di in N.gen_degrees:
            degs.append(di - dk)
    return FreeModule(M.ring, tuple(degs))


def image_presentation(fmap: ModuleMap, quotient_gb: BlockBasis = NO_QUOTIENT) -> ModulePresentation:
    """The image of `fmap` in target/Q, presented on the source generators by
    a minimal generating set of the kernel; `quotient_gb` is a Groebner basis
    of Q (see `kernel_vectors`)."""
    rel = kernel_vectors(fmap, quotient_gb)
    rel = minimal_generators(fmap.source.ring, rel, fmap.source.degrees)
    return ModulePresentation.from_relations(fmap.source, rel)


def hom_module(
    M: ModulePresentation, N: ModulePresentation, gb: Sequence[Vector]
) -> HomModule:
    """Presentation of Hom(M, N) over the common polynomial ring.

    When both arguments are modules over a quotient ring (their relations
    contain the quotient ideal times each generator), this is the Hom over
    that quotient.  `gb` is the reduced Groebner basis of N's relations (as
    `groebner` returns it), computed once by the caller; it stands for N's
    relations in the constraint target and in every slot of the ambient
    module, where it seeds the constraint kernel.
    """
    if M.ring != N.ring:
        raise ValueError("modules must share a ring")
    ring = M.ring
    a0 = M.generators.rank
    b0 = N.generators.rank
    ambient = _ambient(M, N)
    rel_M = M.relation_vectors
    a1 = len(rel_M)

    # target of the constraint map: one block of N's generator module per
    # relation of M; with no relations the kernel is the whole ambient module
    tgt_degs = []
    rel_degs = [v.degree(M.gen_degrees) for v in rel_M]
    for e in rel_degs:
        for di in N.gen_degrees:
            tgt_degs.append(di - e)
    tgt = FreeModule(ring, tuple(tgt_degs))
    cols = []
    for k in range(a0):
        coefs = [rel_M[q].component(k) for q in range(a1)]
        for i in range(b0):
            terms: dict = {}
            for q, poly in enumerate(coefs):
                for m, c in poly.terms.items():
                    terms[(q * b0 + i, m)] = c
            cols.append(Vector(ring, terms))
    constraint = ModuleMap(ambient, tgt, cols)
    # N's relations in every slot, K^{a0}, map into K^{a1}: a known part of
    # the kernel, seeded so the kernel comes out modulo it
    amb_quotient = BlockBasis(gb, b0, a0)
    gens = kernel_vectors(constraint, BlockBasis(gb, b0, a1), amb_quotient)
    # trim those generators modulo K^{a0} too: Hom lives in the quotient of
    # the preimage by the embedded relation submodule of N^{a0}
    gens = minimal_generators(ring, gens, ambient.degrees, amb_quotient)
    hom_free = FreeModule(ring, tuple(v.degree(ambient.degrees) for v in gens))
    # relations among the hom generators, modulo N-relations in each block
    pres = image_presentation(ModuleMap(hom_free, ambient, gens), amb_quotient)
    return HomModule(pres.generators, pres.relations, ambient, gens)


def contains(
    ring: PolyRing, gens: Iterable[Vector], degrees, vectors: Iterable[Vector], gb: BlockBasis = NO_QUOTIENT
) -> bool:
    """Does the submodule generated by `gb` and `gens` contain every one of
    `vectors`?  `gb` is a `BlockBasis` (`membership_engine` seeds it once).
    Stops at the first vector outside it."""
    eng = membership_engine(ring, gens, degrees, gb)
    return all(eng.normal_form(v).is_zero() for v in vectors)


def random_rank(fmap: ModuleMap, point) -> int:
    """Rank of the map specialized at a point, by exact Gaussian elimination.

    The matrix is built in one pass over each column's terms, as plain sums
    of products; every cell becomes a ring coefficient once, before the
    elimination."""
    ring = fmap.source.ring
    mat = [[0] * fmap.source.rank for _ in range(fmap.target.rank)]
    for c, col in enumerate(fmap.columns):
        for (r, m), v in col.terms.items():
            mat[r][c] += v * prod(x**e for x, e in zip(point, m) if e)
    return matrix_rank(ring, [[ring.coeff(x) for x in row] for row in mat])


def matrix_rank(ring: PolyRing, mat) -> int:
    rows = len(mat)
    if rows == 0:
        return 0
    cols = len(mat[0])
    mat = [row[:] for row in mat]
    rank = 0
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = ring.coeff_inv(mat[r][c])
        mat[r] = [ring.coeff(x * inv) for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [ring.coeff(x - f * y) for x, y in zip(mat[i], mat[r])]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank
