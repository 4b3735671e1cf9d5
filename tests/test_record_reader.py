"""Space records read into face tables, against the name-keyed reference.

Every space record checked in under ``tests/data`` (the records of the
stdout goldens of ``space`` included) and the benchmark's ``torus3.json``
is read as it is and under single-entry corruptions: two faces of one cell
swapped, a base renamed to an unknown name or to a name of another
dimension, a bad degeneracy word, one face list dropped.  The reader must
accept exactly what ``sset_oracle.read_record`` accepts, with the same
space, and otherwise fail with the oracle's message, byte for byte.
"""

import json
import pathlib
import random

import pytest

from sset_oracle import read_record
from ssetkit.errors import ValidationError
from ssetkit.serialize import sset_from_record, sset_to_record

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def _space_records() -> dict[str, dict]:
    out = {}
    for path in sorted(DATA.glob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and "cells" in data:
            out[path.name] = data
    for name, spec in json.loads((DATA / "paper_claims.json").read_text())["spaces"].items():
        if isinstance(spec, dict):
            out[f"paper_claims.json:{name}"] = spec
    for path in sorted(DATA.glob("space_*.txt")):
        # ``space`` without --json prints two lines before the record.
        out[path.name] = json.loads(path.read_text().split("\n", 2)[2])
    out["torus3.json"] = json.loads((ROOT / "perfbench" / "data" / "torus3.json").read_text())
    return out


RECORDS = _space_records()
# A record with more face lists than this has those of a seeded sample of
# cells corrupted, one of each dimension.
SMALL = 60
BAD_WORDS = [[0, 0], [-1], [9], [True], "x", [0, 1]]


def _outcome(read, record):
    try:
        return "ok", read(record)
    except ValidationError as exc:
        return "error", str(exc)


def _new_reader(record):
    return sset_to_record(sset_from_record(record))


def _with(record: dict, name: str, entries) -> dict:
    """``record`` with the face list of ``name`` replaced, or dropped."""
    faces = dict(record["faces"])
    if entries is None:
        del faces[name]
    else:
        faces[name] = entries
    return {**record, "faces": faces}


def _corruptions(record: dict):
    """Single-entry corruptions of the face lists of the sampled cells."""
    faces = record["faces"]
    dims = {name: k for k, level in enumerate(record["cells"]) for name in level}
    first = {}  # a name of each dimension
    for name, k in dims.items():
        first.setdefault(k, name)
    names = sorted(faces)
    if len(names) > SMALL:
        rng = random.Random(0)
        names = sorted(
            name
            for k in sorted({dims[n] for n in names})
            for name in rng.sample([n for n in names if dims[n] == k], 1)
        )
    n = 0
    for name in names:
        entries = faces[name]
        yield f"drop {name}", _with(record, name, None)
        for i, (word, base) in enumerate(entries):

            def changed(entry):
                return _with(record, name, entries[:i] + [entry] + entries[i + 1:])

            if i + 1 < len(entries) and entries[i] != entries[i + 1]:
                swapped = entries[:i] + [entries[i + 1], entries[i]] + entries[i + 2:]
                yield f"swap {name} {i}", _with(record, name, swapped)
            yield f"unknown base {name} {i}", changed([word, "nosuch"])
            other = [m for k, m in sorted(first.items()) if k != dims[base]]
            if other:
                yield f"base of another dimension {name} {i}", changed(
                    [word, other[i % len(other)]]
                )
            yield f"bad word {name} {i}", changed([BAD_WORDS[n % len(BAD_WORDS)], base])
            n += 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_round_trip(name):
    record = RECORDS[name]
    assert sset_to_record(sset_from_record(record)) == record
    assert read_record(record) == record


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_corrupted_records_fail_as_the_reference_fails(name):
    errors = 0
    for what, record in _corruptions(RECORDS[name]):
        want = _outcome(read_record, record)
        assert _outcome(_new_reader, record) == want, what
        errors += want[0] == "error"
    assert errors > 0
