"""Reference reduced suspension: the cylinder X x Δ¹ with both ends and the
basepoint line collapsed, and the prism comparison read through both.

The cylinder is the product ``X x Δ¹``; its ends and the cells over the
basepoint of ``X`` form a subcomplex, and ``quotient`` collapses it to the
basepoint ``g0_0``.  The comparison sends a k-simplex x to the alternating
sum of its prism simplices ``(s_i x, s_{J_i} ι)``, each lifted to the
cylinder by ``pullback_oracle.pair_simplex`` and pushed through the collapse.
``ssetkit.excision.reduced_suspension_data`` writes the same space and the
same comparison straight from the cells of ``X``.

The cone and the unreduced suspension are kept here as they were first
written, by collapsing the subcomplex that each end of the cylinder spans
with ``quotient``; ``ssetkit.excision`` glues a point along the end itself.
"""

from dataclasses import dataclass

from pullback_oracle import components, pair_simplex
from ssetkit.build import PullbackResult, QuotientResult, product, quotient
from ssetkit.excision import _end_inclusion, cylinder
from ssetkit.intmat import IntMat
from ssetkit.simplicial_chains import chain_basis
from ssetkit.sset import FiniteSSet, SSetMap, Simplex, pointed, standard_simplex, subcomplex


@dataclass
class OracleSuspension:
    space: FiniteSSet  # pointed
    cylinder: PullbackResult
    collapse: QuotientResult

    def comparison(self, k: int) -> IntMat:
        """The prism comparison Ñ_k(X) -> Ñ_{k+1}(ΣX), lifted to the
        cylinder and projected through the collapse."""
        X = self.cylinder.proj_left.target
        rows = chain_basis(self.space, k + 1, reduced=True)
        index = {name: r for r, name in enumerate(rows)}
        columns = []
        for name in chain_basis(X, k, reduced=True):
            col: dict[int, int] = {}
            for i in range(k + 1):
                # The staircase sends 0..i to 0 and the rest to 1: the edge
                # degenerated at every index but i.
                word = tuple(j for j in range(k, -1, -1) if j != i)
                lift = pair_simplex(
                    self.cylinder, Simplex((i,), name, k + 1), Simplex(word, "01", k + 1)
                )
                img = self.collapse.projection.apply(lift)
                if not img.is_degenerate:
                    row = index[img.base]
                    col[row] = col.get(row, 0) + (-1 if (k + i) % 2 else 1)
            columns.append({r: x for r, x in col.items() if x})
        return IntMat.of_columns(len(rows), columns)


def oracle_suspension(X: FiniteSSet) -> OracleSuspension:
    """ΣX as the quotient of the cylinder by both ends and the basepoint
    line, in one collapse."""
    pr = product(X, standard_simplex(1))
    collapse_names = {
        name for name in pr.space.names
        if components(pr, name)[1].base in ("0", "1")
        or components(pr, name)[0].base == X.basepoint
    }
    q = quotient(pr.space, subcomplex(pr.space, collapse_names))
    return OracleSuspension(q.space, pr, q)


def _image_names(f: SSetMap) -> set[str]:
    """The cells of ``f.target`` that the injective ``f`` hits."""
    return {f.target.cells[k][q] for k, row in enumerate(f.table) for _, q in row}


def oracle_cone(X: FiniteSSet) -> FiniteSSet:
    """The cylinder with the subcomplex of its far end collapsed."""
    pr = cylinder(X)
    far = subcomplex(pr.space, _image_names(_end_inclusion(pr, "1")))
    return quotient(pr.space, far).space


def oracle_unreduced_suspension(X: FiniteSSet) -> FiniteSSet:
    """The subcomplexes of both cylinder ends collapsed, one after the other."""
    pr = cylinder(X)
    q1 = quotient(pr.space, subcomplex(pr.space, _image_names(_end_inclusion(pr, "0"))))
    top = q1.projection.compose(_end_inclusion(pr, "1"))  # misses the bottom end
    q2 = quotient(q1.space, subcomplex(q1.space, _image_names(top)))
    # q2 keeps the bottom cone point of q1; point it at the top one, g0_0.
    return pointed(q2.space, q2.space.cells[0][0])
