"""Batch command-line front door.

One executable with one subcommand per pipeline.  Every field that names a
space (the words of a space argument of any subcommand, a manifest's
``spaces``, a cover's ``space``, a square's corners, ``identity:X``)
reads one grammar, in every form its syntax can carry: as one word, a
manifest name, a compact built-in (``simplex3``, ``boundary3``,
``horn2_1``, ``s2``, ``point``, ``circle``) or a file; as a list of words, a
spaced built-in (``simplex 3``) or a builder (``product A B``,
``quotient A B``, ``suspension A``, ``nerve FILE``, truncated as
``nerve FILE -d N``); as a JSON object, an interchange record.  A two-space
builder takes one word per space; ``suspension`` reads all the words after
it as one space, so builders nest (``suspension suspension circle``).
Covers and squares (built-ins ``interval-collapse``, ``corner-circle``,
``identity:X``) resolve the same way, and a manifest entry may name the
entries before it.  Exit codes: 0 success, 1 a failed mathematical verdict
requested with ``--assert``, 2 parse or validation errors (malformed
interchange records and manifests included) and a standard output closed
before everything was written; exit 2 prints an ``error:`` line on stderr,
never a traceback.  All output is deterministic; machine records go
through the canonical serializer.

A manifest's files (a space, cover or square file, a nerve's preorder) are
read relative to the manifest's directory, in its sections and its tasks
alike; its top-level keys are ``spaces``, ``covers``, ``squares``,
``tasks`` and ``claims``, and any other exits 2.

The paper's claims as one run: ``tests/data/paper_claims.json`` groups its
tasks by the claim each checks, and ``tests/data/paper_claims_output.txt``
is its recorded output.

- ``excision`` on a strict pushout along an injective leg: a homology
  pushout whose chain square is bicartesian (singular chains are
  excisive); ``counterexample``: the identity functor is not.
- ``mv`` on a cover of RP²: excision yields an exact Mayer-Vietoris
  sequence, torsion included.
- ``qcat`` on the nerve of a poset, and on ∂Δ³ for contrast: the
  quasi-categories of the paper's language.
- ``tower l1_mock``: the excisive approximation of ℓ¹-homology is trivial,
  by fiat, since the stand-in is set to zero from its second stage on.
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
    _record,
    _strings,
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
    except RecursionError:
        raise ValidationError(f"{path} is nested too deeply to read")


def _sphere(n: int) -> FiniteSSet:
    if n == 0:
        return pointed(boundary(1), "0")
    return quotient(standard_simplex(n), boundary(n)).space


# Built-in spaces, by head word: the number of integer arguments and the
# builder.  ``simplex3`` and ``simplex 3`` both name ``standard_simplex(3)``.
_BUILTINS = {
    "point": (0, lambda: standard_simplex(0)),
    "circle": (0, lambda: _sphere(1)),
    "simplex": (1, standard_simplex),
    "boundary": (1, boundary),
    "horn": (2, horn),
    "s": (1, _sphere),
}

# Builders over spaces, by head word: the number of spaces and the builder.
_BUILDERS = {
    "product": (2, lambda X, Y: product(X, Y).space),
    "quotient": (2, lambda X, A: quotient(X, subcomplex(X, A.names)).space),
    "suspension": (1, lambda X: (
        reduced_suspension(X) if X.basepoint is not None else unreduced_suspension(X)
    )),
}


class _Names(dict):
    """What a manifest defines: ``(kind, name)`` -> its space, cover or
    square.  ``dir`` is the directory the manifest's file names are read
    relative to; outside a manifest it is empty, the working directory."""

    def __init__(self, directory: str = ""):
        super().__init__()
        self.dir = directory


def _builtin_space(word: str, names: _Names) -> FiniteSSet | None:
    """The built-in a compact token (``s2``, ``horn2_1``) names, if any."""
    m = re.fullmatch(r"([a-z]+)(?:(\d+)(?:_(\d+))?)?", word)
    if m is None or m.group(1) not in _BUILTINS:
        return None
    arity, build = _BUILTINS[m.group(1)]
    numbers = [int(x) for x in m.groups()[1:] if x is not None]
    return build(*numbers) if len(numbers) == arity else None


def _builtin_square(word: str, names: _Names) -> SSetSquare | None:
    if word == "interval-collapse":
        return interval_collapse_square()
    if word == "corner-circle":
        pt = standard_simplex(0)
        to_pt = constant_map(boundary(1), pt, "0")
        circle = _sphere(1)
        to_circle = constant_map(pt, circle, circle.basepoint)
        return SSetSquare(to_pt, to_pt, to_circle, to_circle)
    m = re.fullmatch(r"identity:(.+)", word)
    if m:
        return identity_square(_resolve("space", m.group(1), names))
    return None


def _path(name: str, names: _Names) -> str:
    """A file name, read relative to the directory of the manifest naming it."""
    return os.path.join(names.dir, name)


def _space_words(words, names: _Names, d: int | None = None) -> FiniteSSet:
    """A space from a list of words (see the module docstring)."""
    words = _strings(words, "space specification must be a list of strings")
    if not words:
        raise ValidationError("empty space specification")
    head, rest = words[0], words[1:]
    if head == "nerve" and rest[1:2] == ["-d"]:  # nerve FILE -d N
        if d is not None or len(rest) != 3 or not re.fullmatch(r"-?[0-9]+", rest[2]):
            raise ValidationError(
                f"'nerve FILE -d N' needs one integer N, not {list(words)!r}"
            )
        rest, d = rest[:1], int(rest[2])
    if d is not None and (head != "nerve" or len(rest) != 1):
        raise ValidationError("-d truncates only the nerve of 'nerve FILE'")
    if not rest:
        return _resolve("space", head, names)
    if head in _BUILTINS and len(rest) == _BUILTINS[head][0]:
        return _BUILTINS[head][1](*map(int, rest))
    if head in _BUILDERS and len(rest) == _BUILDERS[head][0]:
        return _BUILDERS[head][1](*(_resolve("space", w, names) for w in rest))
    if head in _BUILDERS and _BUILDERS[head][0] == 1:
        # The rest is one space, so one-space builders nest.  They are read
        # in a loop, not one call deeper per word, and applied innermost first.
        outer = [_BUILDERS[head][1]]
        while len(rest) > 1 and rest[0] in _BUILDERS and _BUILDERS[rest[0]][0] == 1:
            outer.append(_BUILDERS[rest[0]][1])
            rest = rest[1:]
        X = _space_words(rest, names)
        for build in reversed(outer):
            X = build(X)
        return X
    if head == "nerve" and len(rest) == 1:
        return nerve_preorder(preorder_from_record(_load_json(_path(rest[0], names))), d)
    raise ValidationError(f"cannot parse space specification {list(words)!r}")


def _square_from_record(data, names: _Names) -> SSetSquare:
    data = _record(data, "square record")
    try:
        corners = {key: _resolve("space", data[key], names) for key in "wuvx"}
        legs = [
            map_from_record(corners[leg[0]], corners[leg[-1]], data[leg])
            for leg in ("w_to_u", "w_to_v", "u_to_x", "v_to_x")
        ]
    except KeyError as exc:
        raise ValidationError(f"square record is missing {exc}")
    return SSetSquare(*legs)


def _cover_from_record(data, names: _Names) -> CoverData:
    data = _record(data, "cover record")
    X = _resolve("space", data.get("space"), names)
    message = "cover pieces 'u' and 'v' must be lists of names"
    return cover_from_names(X, *(_strings(data.get(k, []), message) for k in "uv"))


# Per kind: the built-in a word names (or None), and the reader of a record.
_KINDS = {
    "space": (_builtin_space, lambda data, names: sset_from_record(data)),
    "cover": (lambda word, names: None, _cover_from_record),
    "square": (_builtin_square, _square_from_record),
}


def _resolve(kind: str, spec, names: _Names, d: int | None = None):
    """The space, cover or square an argument or a JSON field gives.  One
    word is a manifest name (see ``_Names``), then a built-in, then a file
    relative to ``names.dir``."""
    builtin, read = _KINDS[kind]
    if not isinstance(spec, str):
        if kind == "space" and isinstance(spec, list):
            return _space_words(spec, names, d)
        return read(spec, names)
    if (kind, spec) in names:
        return names[kind, spec]
    found = builtin(spec, names)
    if found is not None:
        return found
    path = _path(spec, names)
    if os.path.exists(path):
        return read(_load_json(path), names)
    raise ValidationError(f"unknown {kind} {spec!r}")


def _emit(args, record: dict, human: list[str], ok: bool = True) -> int:
    """Print the record or the human lines; return the exit code, 1 for a
    verdict that failed under ``--assert``."""
    if args.json:
        sys.stdout.write(canonical_dumps(record))
    else:
        for line in human:
            print(line)
    return 1 if getattr(args, "assert_", False) and not ok else 0


# -- subcommand bodies -----------------------------------------------------


def _cmd_space(args) -> int:
    X = _resolve("space", args.spec, args.names, args.d)
    if not args.json:
        print(f"counts: {X.counts()}")
        print(f"basepoint: {X.basepoint if X.basepoint is not None else '-'}")
    sys.stdout.write(canonical_dumps(sset_to_record(X)))
    return 0


def _cmd_homology(args) -> int:
    X = _resolve("space", args.space, args.names)
    c = normalized_chains(X)
    top = args.top if args.top is not None else max(X.top_dim, 0)
    groups = homology_table(c, 0, top)
    rec = {
        "space_counts": list(X.counts()),
        "groups": {str(n): group_to_record(g) for n, g in groups.items()},
    }
    return _emit(args, rec, [f"H_{n} = {g}" for n, g in groups.items()])


def _cmd_qcat(args) -> int:
    X = _resolve("space", args.space, args.names)
    verdict = is_quasicategory_up_to(X, args.d, max_candidates=args.max_enum)
    human = [f"quasi-category up to d={args.d}: {'PASS' if verdict.ok else 'FAIL'}"]
    if verdict.witness is not None:
        human.append(
            f"witness: unfillable inner horn n={verdict.witness.n} i={verdict.witness.i}"
        )
    return _emit(args, verdict_to_record(verdict), human, verdict.ok)


def _cmd_mapspace(args) -> int:
    C = _resolve("space", args.space, args.names)
    M = mapping_space(C, args.source, args.target, args.d, max_candidates=args.max_enum)
    rec = {"counts": list(M.counts()), "space": sset_to_record(M)}
    return _emit(args, rec, [f"counts: {M.counts()}"])


def _cmd_mv(args) -> int:
    cd = _resolve("cover", args.cover, args.names)
    top = args.top if args.top is not None else max(cd.X.top_dim, 0)
    les = mayer_vietoris(cd, top, reduced=args.reduced)
    human = []
    for e in les.entries:
        human.append(f"deg {e.degree} {e.tag}: {e.group}")
    human.append(f"exact: {'all slots' if les.all_exact else 'FAILED'}")
    return _emit(args, les.to_record(), human, les.all_exact)


def _cmd_excision(args) -> int:
    sq = _resolve("square", args.square, args.names)
    report = excision_check(sq)
    rec = report.to_record()
    ok = report.square_is_pushout and report.chain_bicartesian
    return _emit(args, rec, [f"{k}: {v}" for k, v in rec.items()], ok)


def _cmd_tower(args) -> int:
    evaluators = {
        "reduced_chains": reduced_chains_evaluator,
        "l1_mock": l1_mock_evaluator,
    }
    if args.evaluator not in evaluators:
        raise ValidationError(f"unknown evaluator {args.evaluator!r}")
    F = evaluators[args.evaluator]()
    X = _resolve("space", args.space, args.names)
    human = []
    if X.basepoint is None:
        if not X.nondeg(0):
            raise ValidationError("a tower needs a space with a vertex")
        X = pointed(X, X.nondeg(0)[0])
        human.append(f"note: pointed at vertex {X.basepoint!r}")
    t = tower(F, X, args.N)
    qis = [quasi_iso(u) for u in t.maps]
    index = stabilization_index(t)
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
    return _emit(args, rec, human, index is not None)


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
    return _emit(args, rec, human, ok)


def _cmd_run(args) -> int:
    data = _record(_load_json(args.manifest), "manifest")
    unknown = sorted(set(data) - {"spaces", "covers", "squares", "tasks", "claims"})
    if unknown:
        raise ValidationError(f"manifest has unknown key {unknown[0]!r}")
    names = _Names(os.path.dirname(args.manifest))
    for kind in ("space", "cover", "square"):
        entries = _record(data.get(kind + "s", {}), f"manifest '{kind}s'")
        for name, spec in entries.items():
            names[kind, name] = _resolve(kind, spec, names)
    tasks = data.get("tasks", [])
    message = "manifest tasks must be lists of argument strings"
    if not isinstance(tasks, list):
        raise ValidationError(message)
    tasks = [_strings(task, message) for task in tasks]
    if any(task[:1] == ["run"] for task in tasks):
        raise ValidationError("a manifest task cannot run another manifest")
    # Every task is parsed before the first one runs.
    parsed = []
    for i, task in enumerate(tasks):
        try:
            parsed.append(_parser().parse_args(task))
        except _Usage as exc:
            reason = exc.args[1] or "asks for help"
            raise ValidationError(f"manifest task {i}: {reason}")
    worst = 0
    for i, (task, task_args) in enumerate(zip(tasks, parsed)):
        print(f"== task {i}: {' '.join(task)}")
        worst = max(worst, _execute(task_args, names))
    return worst


# -- dispatch --------------------------------------------------------------


class _Usage(Exception):
    """Raised by ``_Parser`` with ``(parser, message)`` where argparse would
    print and exit; ``message`` is None for a request for help."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(self, message)

    def print_help(self, file=None):
        raise _Usage(self, None)


def _count(text: str) -> int:
    """An argument that counts something: a nonnegative int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``run`` parses every
    task of a manifest with it."""
    p = _Parser(prog="ssetkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, assertable=True):
        sp.add_argument("--json", action="store_true")
        if assertable:
            sp.add_argument("--assert", dest="assert_", action="store_true")

    max_enum_help = (
        "budget of candidate images of top cells the map search may try "
        "(default 10**6): the walls of each inner horn for qcat, the top "
        "simplices of each prism Delta^1 x Delta^k for mapspace; only "
        "candidates whose faces already match are counted"
    )

    sp = sub.add_parser("space", help="build and serialize a simplicial set")
    sp.add_argument("spec", nargs="+", help=(
        "one word: a manifest name, a built-in (simplex3, boundary3, horn2_1, s2, "
        "point, circle) or a file; several: a spaced built-in (simplex 3, horn 2 1), "
        "product A B, quotient A B, suspension A or nerve FILE.  Every field that "
        "names a space accepts every form of this grammar"
    ))
    sp.add_argument("-d", type=int, default=None, help="nerve truncation dimension")
    common(sp, assertable=False)
    sp.set_defaults(fn=_cmd_space)

    sp = sub.add_parser("homology", help="integral homology table")
    sp.add_argument("space", nargs="+")
    sp.add_argument("--top", type=_count, default=None)
    common(sp, assertable=False)
    sp.set_defaults(fn=_cmd_homology)

    sp = sub.add_parser("qcat", help="inner-horn filling verdict")
    sp.add_argument("space", nargs="+")
    sp.add_argument("-d", type=int, default=2)
    sp.add_argument("--max-enum", type=_count, default=None, help=max_enum_help)
    common(sp)
    sp.set_defaults(fn=_cmd_qcat)

    sp = sub.add_parser("mapspace", help="vertex-to-vertex mapping space")
    sp.add_argument("space", nargs="+")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("-d", type=int, default=1)
    sp.add_argument("--max-enum", type=_count, default=None, help=max_enum_help)
    common(sp, assertable=False)
    sp.set_defaults(fn=_cmd_mapspace)

    sp = sub.add_parser("mv", help="Mayer-Vietoris long exact sequence")
    sp.add_argument("cover", help="cover file or manifest cover name")
    sp.add_argument("--top", type=_count, default=None)
    sp.add_argument("--reduced", action="store_true")
    common(sp)
    sp.set_defaults(fn=_cmd_mv)

    sp = sub.add_parser("excision", help="homology pushout / bicartesian report")
    sp.add_argument("square")
    common(sp)
    sp.set_defaults(fn=_cmd_excision)

    sp = sub.add_parser("tower", help="excisive approximation stages")
    sp.add_argument("evaluator")
    sp.add_argument("space", nargs="+")
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


def _execute(args, names: _Names) -> int:
    args.names = names
    try:
        return args.fn(args)
    # ValueError covers ValidationError and the int() of a malformed token.
    except (ValueError, EnumerationLimit, StabilizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except _Usage as exc:  # print what argparse would
        parser, message = exc.args
        if message is None:
            sys.stdout.write(parser.format_help())
            return 0
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {message}", file=sys.stderr)
        return 2
    return _execute(args, _Names())


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Drop what is still buffered, so the flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed before the output ended", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
