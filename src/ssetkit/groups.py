"""Finitely generated abelian groups: normal forms and presented maps.

A ``HomologyGroup`` is the isomorphism-class normal form (free rank plus
invariant factors in divisibility order).  A ``PresentedGroup`` keeps an
explicit presentation (generator count plus relation matrix) so that maps
between groups can be composed and exactness can be decided by integer
linear algebra, independent of how the maps were produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .intmat import IntMat, kernel_basis, rank_and_torsion, solve

__all__ = [
    "HomologyGroup",
    "PresentedGroup",
    "group_from_relations",
    "is_zero_map",
    "exact_at",
]


@dataclass(frozen=True)
class HomologyGroup:
    """Normal form of a finitely generated abelian group."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValidationError("rank must be nonnegative")
        for d in self.torsion:
            if d < 2:
                raise ValidationError("invariant factors must be at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValidationError("invariant factors must form a divisibility chain")

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def group_from_relations(gens: int, rels: IntMat) -> HomologyGroup:
    """Normal form of ``Z^gens / column span of rels``."""
    if rels.rows != gens:
        raise ValidationError("relation matrix has wrong number of rows")
    rank, torsion = rank_and_torsion(rels)
    return HomologyGroup(gens - rank, torsion)


@dataclass(frozen=True)
class PresentedGroup:
    """``Z^gens`` modulo the column span of ``relations``."""

    gens: int
    relations: IntMat

    def __post_init__(self) -> None:
        if self.relations.rows != self.gens:
            raise ValidationError("relation matrix has wrong number of rows")

    def normal_form(self) -> HomologyGroup:
        return group_from_relations(self.gens, self.relations)


def is_zero_map(M: IntMat, target: PresentedGroup) -> bool:
    """Does ``M`` induce the zero map into ``target``?"""
    if M.rows != target.gens:
        raise ValidationError("matrix does not map into the target presentation")
    return solve(target.relations, M) is not None


def exact_at(
    left: IntMat,
    middle: PresentedGroup,
    right: IntMat,
    target: PresentedGroup,
) -> bool:
    """Is ``im(left) = ker(right)`` inside ``middle``?

    ``left`` maps some presented group into ``middle``; ``right`` maps
    ``middle`` into ``target``.  Requires the composite to be zero, which is
    checked; the content is that the kernel lattice of ``right`` (computed by
    saturation against the target relations) is contained in the subgroup
    generated by the columns of ``left`` and the relations of ``middle``.
    """
    if left.rows != middle.gens or right.cols != middle.gens:
        raise ValidationError("shape mismatch in exactness check")
    if not is_zero_map(right @ left, target):
        return False
    # Kernel of (middle -> target): x with right @ x in the relation span.
    stacked = right.hstack(target.relations.scale(-1))
    ker = kernel_basis(stacked)
    ker_x = IntMat.of_columns(middle.gens, (
        {i: x for i, x in col.items() if i < middle.gens} for col in ker.columns
    ))
    span = left.hstack(middle.relations)
    return solve(span, ker_x) is not None
