"""Batch command-line front door.

One executable with one subcommand per pipeline.  Spaces are named by
compact builder tokens (``simplex2``, ``boundary3``, ``horn2_1``,
``circle``, ``s0`` .. ``s9``, ``point``) or by paths to interchange files;
the ``space`` subcommand additionally accepts the spaced builder grammar
(``space product circle simplex1``).  Exit codes: 0 success, 1 a failed
mathematical verdict requested with ``--assert``, 2 parse or validation
errors, malformed interchange records and manifests included; exit 2
prints an ``error:`` line on stderr, never a traceback.  All output is
deterministic; machine records go through the canonical serializer.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .build import product, quotient
from .chain import homology_table, quasi_iso, stabilization_index
from .errors import EnumerationLimit, StabilizationError, ValidationError
from .excision import (
    CoverData,
    SSetSquare,
    cover_from_names,
    excision_check,
    identity_square,
    identity_counterexample_report,
    interval_collapse_square,
    mayer_vietoris,
    reduced_suspension,
    unreduced_suspension,
)
from .function_complex import mapping_space
from .nerve import nerve_preorder
from .quasicat import is_quasicategory_up_to
from .serialize import (
    canonical_dumps,
    chain_to_record,
    group_to_record,
    map_from_record,
    preorder_from_record,
    sset_from_record,
    sset_to_record,
    verdict_to_record,
)
from .simplicial_chains import normalized_chains
from .sset import (
    FiniteSSet,
    boundary,
    constant_map,
    horn,
    pointed,
    standard_simplex,
    subcomplex,
)
from .tower import l1_mock_evaluator, reduced_chains_evaluator, tower

__all__ = ["main"]


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}")


def _sphere(n: int) -> FiniteSSet:
    if n == 0:
        return pointed(boundary(1), "0")
    return quotient(standard_simplex(n), boundary(n)).space


def _atom_space(token: str, namespace: dict | None = None) -> FiniteSSet:
    """Resolve a compact space token: manifest name, builtin, or file."""
    if namespace and token in namespace:
        return namespace[token]
    if token == "point":
        return standard_simplex(0)
    if token == "circle":
        return _sphere(1)
    m = re.fullmatch(r"simplex(\d+)", token)
    if m:
        return standard_simplex(int(m.group(1)))
    m = re.fullmatch(r"boundary(\d+)", token)
    if m:
        return boundary(int(m.group(1)))
    m = re.fullmatch(r"horn(\d+)_(\d+)", token)
    if m:
        return horn(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"s(\d)", token)
    if m:
        return _sphere(int(m.group(1)))
    if os.path.exists(token):
        return sset_from_record(_load_json(token))
    raise ValidationError(f"unknown space {token!r}")


def _build_space(tokens: list[str], d: int | None, namespace=None) -> FiniteSSet:
    """The spaced builder grammar of the ``space`` subcommand."""
    if not tokens:
        raise ValidationError("empty space specification")
    head, rest = tokens[0], tokens[1:]
    if head == "simplex" and len(rest) == 1:
        return standard_simplex(int(rest[0]))
    if head == "boundary" and len(rest) == 1:
        return boundary(int(rest[0]))
    if head == "horn" and len(rest) == 2:
        return horn(int(rest[0]), int(rest[1]))
    if head == "nerve" and len(rest) == 1:
        return nerve_preorder(preorder_from_record(_load_json(rest[0])), d)
    if head == "circle" and not rest:
        return _sphere(1)
    if head == "product" and len(rest) == 2:
        return product(
            _atom_space(rest[0], namespace), _atom_space(rest[1], namespace)
        ).space
    if head == "quotient" and len(rest) == 2:
        total = _atom_space(rest[0], namespace)
        part = _atom_space(rest[1], namespace)
        return quotient(total, subcomplex(total, part.names)).space
    if head == "suspension" and len(rest) == 1:
        X = _atom_space(rest[0], namespace)
        if X.basepoint is not None:
            return reduced_suspension(X)
        return unreduced_suspension(X)
    if len(tokens) == 1:
        return _atom_space(head, namespace)
    raise ValidationError(f"cannot parse space specification {tokens!r}")


def _square(token: str, names=({}, {}, {})) -> SSetSquare:
    spaces, _, squares = names
    if token in squares:
        return squares[token]
    if token == "interval-collapse":
        return interval_collapse_square()
    if token == "corner-circle":
        pt = standard_simplex(0)
        to_pt = constant_map(boundary(1), pt, "0")
        circle = _sphere(1)
        to_circle = constant_map(pt, circle, circle.basepoint)
        return SSetSquare(to_pt, to_pt, to_circle, to_circle)
    m = re.fullmatch(r"identity:(.+)", token)
    if m:
        return identity_square(_atom_space(m.group(1), spaces))
    if os.path.exists(token):
        return _square_from_record(_load_json(token))
    raise ValidationError(f"unknown square {token!r}")


def _square_from_record(data) -> SSetSquare:
    if not isinstance(data, dict):
        raise ValidationError("square record must be a JSON object")
    try:
        spaces = {
            key: sset_from_record(data[key]) for key in ("w", "u", "v", "x")
        }
        legs = {
            "w_to_u": (spaces["w"], spaces["u"]),
            "w_to_v": (spaces["w"], spaces["v"]),
            "u_to_x": (spaces["u"], spaces["x"]),
            "v_to_x": (spaces["v"], spaces["x"]),
        }
        maps = {
            key: map_from_record(src, dst, data[key])
            for key, (src, dst) in legs.items()
        }
    except KeyError as exc:
        raise ValidationError(f"square record is missing {exc}")
    return SSetSquare(
        maps["w_to_u"], maps["w_to_v"], maps["u_to_x"], maps["v_to_x"]
    )


def _cover_from_record(data, spaces) -> CoverData:
    if not isinstance(data, dict):
        raise ValidationError("cover record must be a JSON object")
    space_spec = data.get("space")
    if isinstance(space_spec, str):
        X = _atom_space(space_spec, spaces)
    else:
        X = sset_from_record(space_spec)
    pieces = (data.get("u", []), data.get("v", []))
    for piece in pieces:
        if not isinstance(piece, list) or not all(isinstance(n, str) for n in piece):
            raise ValidationError("cover pieces 'u' and 'v' must be lists of names")
    return cover_from_names(X, *pieces)


def _cover(token: str, names=({}, {}, {})) -> CoverData:
    spaces, covers, _ = names
    if token in covers:
        return covers[token]
    return _cover_from_record(_load_json(token), spaces)


def _manifest_section(data: dict, key: str) -> dict:
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise ValidationError(f"manifest {key!r} must be a JSON object")
    return section


def _emit(args, record: dict, human: list[str]) -> None:
    if args.json:
        sys.stdout.write(canonical_dumps(record))
    else:
        for line in human:
            print(line)


# -- subcommand bodies -----------------------------------------------------


def _cmd_space(args) -> int:
    X = _build_space(args.spec, args.d, args.names[0])
    rec = sset_to_record(X)
    if args.json:
        sys.stdout.write(canonical_dumps(rec))
    else:
        print(f"counts: {X.counts()}")
        print(f"basepoint: {X.basepoint if X.basepoint is not None else '-'}")
        sys.stdout.write(canonical_dumps(rec))
    return 0


def _cmd_homology(args) -> int:
    X = _atom_space(args.space, args.names[0])
    c = normalized_chains(X)
    top = args.top if args.top is not None else max(X.top_dim, 0)
    groups = homology_table(c, 0, top)
    rec = {
        "space_counts": list(X.counts()),
        "groups": {str(n): group_to_record(g) for n, g in groups.items()},
    }
    _emit(args, rec, [f"H_{n} = {g}" for n, g in groups.items()])
    return 0


def _cmd_qcat(args) -> int:
    X = _atom_space(args.space, args.names[0])
    verdict = is_quasicategory_up_to(X, args.d, max_candidates=args.max_enum)
    human = [f"quasi-category up to d={args.d}: {'PASS' if verdict.ok else 'FAIL'}"]
    if verdict.witness is not None:
        human.append(
            f"witness: unfillable inner horn n={verdict.witness.n} i={verdict.witness.i}"
        )
    _emit(args, verdict_to_record(verdict), human)
    if args.assert_ and not verdict.ok:
        return 1
    return 0


def _cmd_mapspace(args) -> int:
    C = _atom_space(args.space, args.names[0])
    M = mapping_space(C, args.source, args.target, args.d, max_candidates=args.max_enum)
    rec = {"counts": list(M.counts()), "space": sset_to_record(M)}
    _emit(args, rec, [f"counts: {M.counts()}"])
    return 0


def _cmd_mv(args) -> int:
    cd = _cover(args.cover, args.names)
    top = args.top if args.top is not None else max(cd.X.top_dim, 0)
    les = mayer_vietoris(cd, top, reduced=args.reduced)
    human = []
    for e in les.entries:
        human.append(f"deg {e.degree} {e.tag}: {e.group}")
    human.append(f"exact: {'all slots' if les.all_exact else 'FAILED'}")
    _emit(args, les.to_record(), human)
    if args.assert_ and not les.all_exact:
        return 1
    return 0


def _cmd_excision(args) -> int:
    sq = _square(args.square, args.names)
    report = excision_check(sq)
    rec = report.to_record()
    _emit(args, rec, [f"{k}: {v}" for k, v in rec.items()])
    if args.assert_ and not (report.square_is_pushout and report.chain_bicartesian):
        return 1
    return 0


def _cmd_tower(args) -> int:
    evaluators = {
        "reduced_chains": reduced_chains_evaluator,
        "l1_mock": l1_mock_evaluator,
    }
    if args.evaluator not in evaluators:
        raise ValidationError(f"unknown evaluator {args.evaluator!r}")
    F = evaluators[args.evaluator]()
    X = _atom_space(args.space, args.names[0])
    note = None
    if X.basepoint is None:
        if not X.nondeg(0):
            raise ValidationError("a tower needs a space with a vertex")
        X = pointed(X, X.nondeg(0)[0])
        note = f"note: pointed at vertex {X.basepoint!r}"
    t = tower(F, X, args.N)
    qis = [quasi_iso(u) for u in t.maps]
    index = stabilization_index(t)
    human = [] if note is None else [note]
    stage_tables, shown = [], []
    for n, st in enumerate(t.stages):
        table = homology_table(st, st.low, st.high)
        stage_tables.append({str(k): group_to_record(g) for k, g in table.items()})
        shown.append(", ".join(f"H_{k}={g}" for k, g in table.items()))
        human.append(f"stage {n}: {shown[n]}")
    human.append(f"structure maps quasi-iso: {qis}")
    if index is None:
        human.append("stabilization: not certified within the probed stages")
    else:
        human.append(f"stabilization: stage {index}")
        zero = t.stages[index].is_zero_complex()
        human.append(f"colimit: {'zero complex' if zero else shown[index]}")
    rec = {
        "evaluator": args.evaluator,
        "stages": stage_tables,
        "structure_quasi_iso": qis,
        "stabilization_index": index,
        "colimit": None if index is None else chain_to_record(t.stages[index]),
    }
    _emit(args, rec, human)
    if args.assert_ and index is None:
        return 1
    return 0


def _cmd_counterexample(args) -> int:
    rep = identity_counterexample_report()
    rec = rep.to_record()
    ok = (
        rep.pullback_H0_rank == 2
        and rep.corner_H1.rank == 1
        and not rep.corner_H1.torsion
        and rep.square_is_pushout
    )
    human = [f"{k}: {v}" for k, v in rec.items()]
    human.append(f"matches expected values: {ok}")
    _emit(args, rec, human)
    if args.assert_ and not ok:
        return 1
    return 0


def _cmd_run(args) -> int:
    data = _load_json(args.manifest)
    if not isinstance(data, dict):
        raise ValidationError("manifest must be a JSON object")
    namespace: dict[str, FiniteSSet] = {}
    for name, spec in _manifest_section(data, "spaces").items():
        if isinstance(spec, str):
            namespace[name] = _atom_space(spec)
        elif isinstance(spec, list) and all(isinstance(t, str) for t in spec):
            namespace[name] = _build_space(spec, None, namespace)
        else:
            namespace[name] = sset_from_record(spec)
    covers = {
        name: _cover_from_record(spec, namespace)
        for name, spec in _manifest_section(data, "covers").items()
    }
    squares = {}
    for name, spec in _manifest_section(data, "squares").items():
        squares[name] = (
            _square(spec, (namespace, {}, {}))
            if isinstance(spec, str)
            else _square_from_record(spec)
        )
    tasks = data.get("tasks", [])
    if not isinstance(tasks, list) or not all(
        isinstance(t, list) and all(isinstance(x, str) for x in t) for t in tasks
    ):
        raise ValidationError("manifest tasks must be lists of argument strings")
    if any(t[:1] == ["run"] for t in tasks):
        raise ValidationError("a manifest task cannot run another manifest")
    worst = 0
    for i, task in enumerate(tasks):
        print(f"== task {i}: {' '.join(task)}")
        code = main(task, _names=(namespace, covers, squares))
        worst = max(worst, code)
    return worst


# -- dispatch --------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``run`` parses every
    task of a manifest with it."""
    p = argparse.ArgumentParser(prog="ssetkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, assertable=True):
        sp.add_argument("--json", action="store_true")
        if assertable:
            sp.add_argument("--assert", dest="assert_", action="store_true")

    max_enum_help = (
        "budget of candidate images the map search may try (default 10**6); "
        "only candidates whose faces already match are counted"
    )

    sp = sub.add_parser("space", help="build and serialize a simplicial set")
    sp.add_argument("spec", nargs="+")
    sp.add_argument("-d", type=int, default=None, help="nerve truncation dimension")
    common(sp, assertable=False)
    sp.set_defaults(fn=_cmd_space)

    sp = sub.add_parser("homology", help="integral homology table")
    sp.add_argument("space")
    sp.add_argument("--top", type=int, default=None)
    common(sp, assertable=False)
    sp.set_defaults(fn=_cmd_homology)

    sp = sub.add_parser("qcat", help="inner-horn filling verdict")
    sp.add_argument("space")
    sp.add_argument("-d", type=int, default=2)
    sp.add_argument("--max-enum", type=int, default=None, help=max_enum_help)
    common(sp)
    sp.set_defaults(fn=_cmd_qcat)

    sp = sub.add_parser("mapspace", help="vertex-to-vertex mapping space")
    sp.add_argument("space")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("-d", type=int, default=1)
    sp.add_argument("--max-enum", type=int, default=None, help=max_enum_help)
    common(sp, assertable=False)
    sp.set_defaults(fn=_cmd_mapspace)

    sp = sub.add_parser("mv", help="Mayer-Vietoris long exact sequence")
    sp.add_argument("cover", help="cover file or manifest cover name")
    sp.add_argument("--top", type=int, default=None)
    sp.add_argument("--reduced", action="store_true")
    common(sp)
    sp.set_defaults(fn=_cmd_mv)

    sp = sub.add_parser("excision", help="homology pushout / bicartesian report")
    sp.add_argument("square")
    common(sp)
    sp.set_defaults(fn=_cmd_excision)

    sp = sub.add_parser("tower", help="excisive approximation stages")
    sp.add_argument("evaluator")
    sp.add_argument("space")
    sp.add_argument("-N", type=int, default=4)
    common(sp)
    sp.set_defaults(fn=_cmd_tower)

    sp = sub.add_parser("counterexample", help="identity-functor report")
    common(sp)
    sp.set_defaults(fn=_cmd_counterexample)

    sp = sub.add_parser("run", help="run every task of a manifest file")
    sp.add_argument("manifest")
    common(sp, assertable=False)
    sp.set_defaults(fn=_cmd_run)
    return p


def main(argv=None, _names=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.names = _names if _names is not None else ({}, {}, {})
    try:
        return args.fn(args)
    # ValueError covers ValidationError and the int() of a malformed token.
    except (ValueError, EnumerationLimit, StabilizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
