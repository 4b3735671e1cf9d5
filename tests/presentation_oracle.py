"""The homology presentation read straight off a complex: the slow oracle of
the reductions.

``ssetkit.chain.homology_presentation`` reads the small complex that
``reduce_complex`` makes chain equivalent to the given one, and writes its
generators and coordinates back through the two maps of the reduction.
This is the direct path it replaced, run degree by degree on the whole
complex: a saturated basis ``Z`` of the cycles, the boundaries from one
degree up written on it, and the unit elimination of those.  Its generators
are cycles of ``Z``, so an induced map read through it differs from the
package's by a change of generators only.
"""

from ssetkit.errors import ValidationError
from ssetkit.groups import PresentedGroup
from ssetkit.intmat import IntMat, _solver, _unit_quotient, kernel_basis


def homology_presentation(c, n: int):
    """``(G, P, coordinates)`` of H_n(c), as the package returns them.

    The columns of ``G`` are the cycles of ``Z`` in no unit-pivot row of
    the elimination of ``W``, and ``P`` presents the homology on them by the
    non-unit remainder.  ``coordinates(V)`` writes cycles ``V`` on ``G``
    modulo ``P``, or gives ``None`` when ``V`` is not made of cycles.
    """
    Z = kernel_basis(c.boundary(n))
    on_cycles = _solver(Z)
    W = on_cycles(c.boundary(n + 1))
    if W is None:
        raise ValidationError("boundaries are not cycles; complex is corrupt")
    kept, relations, reduce = _unit_quotient(W)

    def coordinates(V: IntMat) -> IntMat | None:
        X = on_cycles(V)
        return None if X is None else reduce(X)

    G = IntMat.of_columns(Z.rows, (Z.columns[i] for i in kept))
    return G, PresentedGroup(len(kept), relations), coordinates
