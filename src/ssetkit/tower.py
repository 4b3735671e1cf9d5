"""Finite stages of the best excisive approximation.

A stage evaluator packages a chains-level functor F together with the
comparison maps of the sequential diagram whose n-th entry is the n-fold
desuspension of F on the n-fold reduced suspension.  The colimit of that
diagram is the excisive approximation; here it is probed through finitely
many stages and certified stable or reported as undecided.

The built-in ``reduced_chains_evaluator`` takes its structure maps from
the suspension comparison Ñ(Y) -> ΩÑ(ΣY) of ``SuspensionData.comparison``,
a signed selection of the prism cells of each simplex of Y in ΣY, shifted
down to the stages they join.  Each stage is built once per base
space, so a tower's maps start and end at its own stage objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .chain import (
    ChainComplex,
    ChainMap,
    Tower,
    _padded_blocks,
    _unchecked,
    homology_table,
    loop_shift,
    sequential_colimit,
    zero_complex,
    zero_map,
)
from .errors import ValidationError
from .excision import SuspensionData, reduced_suspension_data
from .simplicial_chains import reduced_normalized_chains
from .sset import FiniteSSet, pointed, standard_simplex

__all__ = [
    "StageEvaluator",
    "ReducednessCertificate",
    "stage",
    "tower",
    "p1_approximation",
    "check_reduced",
    "reduced_chains_evaluator",
    "l1_mock_evaluator",
]


@dataclass(frozen=True)
class StageEvaluator:
    """A named tower generator.

    ``eval(X, n)`` is the full n-th stage (desuspensions already applied);
    ``structure_map(X, n)`` is the comparison from stage n to stage n+1.
    """

    name: str
    eval: Callable[[FiniteSSet, int], ChainComplex]
    structure_map: Callable[[FiniteSSet, int], ChainMap]


@dataclass(frozen=True)
class ReducednessCertificate:
    """Homology of the evaluator on the one-point space, stage by stage."""

    evaluator: str
    witness: tuple[tuple[int, tuple], ...]  # (stage, homology table)
    ok: bool


def _require_pointed(X: FiniteSSet) -> None:
    if X.basepoint is None:
        raise ValidationError("tower stages need a pointed simplicial set")


def stage(F: StageEvaluator, X: FiniteSSet, n: int) -> ChainComplex:
    _require_pointed(X)
    if n < 0:
        raise ValidationError("stage index must be a natural number")
    return F.eval(X, n)


def tower(F: StageEvaluator, X: FiniteSSet, N: int) -> Tower:
    _require_pointed(X)
    if N < 1:
        raise ValidationError("a tower needs at least two stages")
    stages = tuple(F.eval(X, n) for n in range(N + 1))
    maps = tuple(F.structure_map(X, n) for n in range(N))
    return Tower(stages, maps)


def p1_approximation(F: StageEvaluator, X: FiniteSSet, N: int) -> ChainComplex:
    return sequential_colimit(tower(F, X, N))


def check_reduced(F: StageEvaluator, N: int) -> ReducednessCertificate:
    pt = pointed(standard_simplex(0), "0")
    witness = []
    ok = True
    for n in range(N + 1):
        c = F.eval(pt, n)
        table = homology_table(c, c.low, c.high)
        witness.append((n, tuple(sorted(table.items()))))
        if any(not g.is_zero for g in table.values()):
            ok = False
    return ReducednessCertificate(F.name, tuple(witness), ok)


# -- the reduced-chains evaluator ------------------------------------------


class _ReducedChainsStages:
    """Builds each stage once per base space (the reduced chains of the
    n-fold suspension, shifted down n degrees) and the maps between them."""

    def __init__(self) -> None:
        self._susp: dict[FiniteSSet, SuspensionData] = {}
        self._stages: dict[tuple[FiniteSSet, int], ChainComplex] = {}

    def _suspension(self, Y: FiniteSSet) -> SuspensionData:
        if Y not in self._susp:
            self._susp[Y] = reduced_suspension_data(Y)
        return self._susp[Y]

    def space(self, X: FiniteSSet, n: int) -> FiniteSSet:
        Y = X
        for _ in range(n):
            Y = self._suspension(Y).space
        return Y

    def eval(self, X: FiniteSSet, n: int) -> ChainComplex:
        _require_pointed(X)
        if (X, n) not in self._stages:
            self._stages[X, n] = loop_shift(
                reduced_normalized_chains(self.space(X, n)), n
            )
        return self._stages[X, n]

    def structure_map(self, X: FiniteSSet, n: int) -> ChainMap:
        """The comparison of Y = Σⁿ X from stage n into stage n + 1: a
        k-simplex of Y, in stage degree k - n, goes to (k+1)-chains of ΣY,
        which sit in the same stage degree of stage n + 1."""
        source, target = self.eval(X, n), self.eval(X, n + 1)
        sd = self._suspension(self.space(X, n))
        blocks = {
            k - n: sd.comparison(k)
            for k in range(source.low + n, source.high + n + 1)
        }
        return _unchecked(
            ChainMap, source, target, _padded_blocks(source, target, blocks)
        )


def reduced_chains_evaluator() -> StageEvaluator:
    st = _ReducedChainsStages()
    return StageEvaluator("reduced_chains", st.eval, st.structure_map)


# -- the hard-coded vanishing evaluator ------------------------------------


def l1_mock_evaluator() -> StageEvaluator:
    """Reduced chains below stage 2, identically zero from stage 2 on.

    Stand-in for a functor that vanishes on all simply connected spaces:
    double suspensions are simply connected, so every stage from 2 up is
    zero and the tower's colimit collapses.
    """
    st = _ReducedChainsStages()

    def eval(X: FiniteSSet, n: int) -> ChainComplex:
        _require_pointed(X)
        if n >= 2:
            return zero_complex()
        return st.eval(X, n)

    def structure_map(X: FiniteSSet, n: int) -> ChainMap:
        _require_pointed(X)
        if n == 0:
            return st.structure_map(X, 0)
        return zero_map(eval(X, n), eval(X, n + 1))

    return StageEvaluator("l1_mock", eval, structure_map)
