"""The --json writer against ``json.dumps(indent=2, sort_keys=True)``, byte for byte."""

import collections
import enum
import json
import math
import random

import pytest

from floerchains import cli
from test_cli import INPUT_ERRORS, count_calls


def printed(record):
    """What ``--json`` prints for `record`."""
    return cli._json_text(record) + "\n"


def dumped(record):
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def evaluated(argv):
    return cli._evaluate(cli._parse(argv))


def test_every_small_two_bridge_record():
    pairs = [(p, q) for p in range(3, 100, 2) for q in range(1, p) if math.gcd(p, q) == 1]
    assert len(pairs) == 2006
    for p, q in pairs:
        code, record = evaluated(["two-bridge", "-p", str(p), "-q", str(q)])
        assert code == 0
        assert printed(record) == dumped(record), (p, q)


def test_large_two_bridge_record():
    code, record = evaluated(["two-bridge", "-p", "1001", "-q", "376"])
    assert code == 0
    assert len(record["generators"]) == 1001
    assert printed(record) == dumped(record)


@pytest.mark.parametrize("argv", INPUT_ERRORS, ids=" ".join)
def test_error_objects(argv):
    code, record = evaluated(argv)
    assert code == 1
    assert printed(record) == dumped(record)


# quotes, backslashes, control characters, non-ASCII and astral-plane text,
# a lone surrogate, and the percent sign of a %-format template
PIECES = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u03bb", "\u2014",
          "\u2028", "\ufeff", "\U0001f600", "\U0001d11e", "\ud834", "a", "Z", " ", ":", ",",
          "%", "s"]
INTS = [0, 1, -1, 2**31, -(2**63) - 1, 2**64 + 1, 10**40, -(10**40)]


def fuzz_string(rng):
    return "".join(rng.choice(PIECES) for _ in range(rng.randrange(6)))


def fuzz_scalar(rng):
    return rng.choice([
        fuzz_string(rng),
        rng.choice(INTS),
        rng.randrange(-(2**70), 2**70),
        True,
        False,
        None,
    ])


def fuzz_value(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return fuzz_scalar(rng)
    size = rng.randrange(4)  # 0 gives [] or {}
    if roll < 0.6:
        return [fuzz_value(rng, depth - 1) for _ in range(size)]
    if roll < 0.7:
        return tuple(fuzz_value(rng, depth - 1) for _ in range(size))
    return {fuzz_string(rng): fuzz_value(rng, depth - 1) for _ in range(size)}


@pytest.mark.parametrize("seed", range(20))
def test_fuzzed_record_shaped_values(seed):
    rng = random.Random(seed)
    for _ in range(50):
        value = fuzz_value(rng, rng.randrange(6))
        assert printed(value) == dumped(value), value


def test_empty_containers_at_every_depth():
    value = {}
    for depth in range(8):
        value = {"": [], "b": {}, "c": [value, [], {}, [[]], [{}]], "d": {"e": value}}
        assert printed(value) == dumped(value), depth


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        {"a": [1, 2.0]},
        [{"a": float("nan")}],
        {1: 2},
        {"a": {None: 1}},
        [{(1, 2): 3}],
        {"a": {1, 2}},
        [b"bytes"],
    ],
    ids=repr,
)
def test_rejects_what_a_record_cannot_hold(value):
    with pytest.raises(TypeError):
        printed(value)


def flat_rows(value):
    """What the batched row path makes of `value` as a list one level deep."""
    return cli._flat_rows(value, "\n  ")


def fuzz_rows(rng):
    """1-50 flat rows sharing one key set, each filled in its own key order."""
    keys = list(dict.fromkeys(fuzz_string(rng) for _ in range(rng.randrange(1, 6))))
    rows = []
    for _ in range(rng.randrange(1, 51)):
        rng.shuffle(keys)
        rows.append({key: fuzz_scalar(rng) for key in keys})
    return rows if rng.random() < 0.7 else tuple(rows)


@pytest.mark.parametrize("seed", range(20))
def test_fuzzed_row_lists(seed):
    rng = random.Random(seed)
    for _ in range(30):
        rows = fuzz_rows(rng)
        assert flat_rows(rows) is not None, rows
        assert printed(rows) == dumped(rows), rows
        record = {"generators": rows, "ranks": [1, 0]}
        assert printed(record) == dumped(record), rows


def test_percent_signs_in_keys():
    keys = ["%", "%s", "%%", "%(a)s", "%d", "a%", "%%s", "%r%"]
    rows = [{key: i * len(keys) + j for j, key in enumerate(keys)} for i in range(3)]
    assert flat_rows(rows) is not None
    assert printed(rows) == dumped(rows)


def column_rows(column, other=None):
    """One row per value of `column` under key "a", beside a str column "b"."""
    other = other or [f"row {i}" for i in range(len(column))]
    return [{"a": value, "b": text} for value, text in zip(column, other)]


BIG = [0, -1, 2**64 + 1, 10**40, -(10**40)]
# escapes, non-ASCII and astral text, a lone surrogate and %-format text,
# each value repeated
TEXTS = ['say "hi"', "C:\\dir", "\x00\x1f\n\t", "\u00e9\u03bb\u2014", "\U0001f600", "\ud834",
         "%", "%s", "100 %d %%"] * 3
TYPED_COLUMNS = [
    column_rows(BIG),
    column_rows([True, False, False, True]),
    column_rows([True, 1, 0, False]),
    column_rows([1, 2, None, 4]),
    column_rows([5, 6, 7], ["%", "%d", "100 %s %%d %(a)s %"]),
    [{"a": value, "b": -value, "c": None} for value in BIG],
    column_rows(TEXTS, TEXTS[::-1]),
    column_rows([None, 1, 2, 3]),
    column_rows([1, 2, 3, None]),
    column_rows([None, 10**40, -(10**40), 0, None]),
    column_rows([None, None, None]),
    column_rows([None, True, False]),
    column_rows(["a", None, "a"]),
    column_rows(["a", 1, "%s"]),
]
TYPED_IDS = ["big ints", "bools", "True beside 1", "int column with None",
             "percent signs in values", "int columns only beside None",
             "repeated escaped strs", "None in first row", "None in last row",
             "big ints beside None", "None column", "bools beside None",
             "strs beside None", "strs beside ints"]


@pytest.mark.parametrize("rows", TYPED_COLUMNS, ids=TYPED_IDS)
def test_typed_columns(rows, monkeypatch):
    # an all-int column is formatted with %d, an all-str column and a column
    # of ints and Nones with %s, any other scalar mix with %s of the text of
    # each value's exact type; none of them calls json.dumps
    calls = count_calls(monkeypatch, [(json, "dumps")])
    assert flat_rows(rows) is not None
    assert calls == []
    monkeypatch.undo()
    assert printed(rows) == dumped(rows)
    record = {"generators": rows, "ranks": [1, 0]}
    assert printed(record) == dumped(record)


def fuzz_typed_rows(rng):
    """1 to 200 flat rows, each of whose columns holds only ints, only ints
    and Nones, only a few distinct strs, or any scalars."""
    keys = list(dict.fromkeys(fuzz_string(rng) for _ in range(rng.randrange(1, 6))))
    texts = [fuzz_string(rng) for _ in range(3)]

    def an_int():
        return rng.choice(INTS + [rng.randrange(-(2**70), 2**70)])

    draws = [
        an_int,
        lambda: None if rng.random() < 0.2 else an_int(),
        lambda: rng.choice(texts),
        lambda: fuzz_scalar(rng),
    ]
    draw = {key: rng.choice(draws) for key in keys}
    rows = []
    for _ in range(rng.randrange(1, 201)):
        rng.shuffle(keys)
        rows.append({key: draw[key]() for key in keys})
    return rows


@pytest.mark.parametrize("seed", range(10))
def test_fuzzed_typed_row_lists(seed):
    rng = random.Random(seed)
    for _ in range(5):
        rows = fuzz_typed_rows(rng)
        assert flat_rows(rows) is not None, rows
        assert printed(rows) == dumped(rows), rows


class Grading(enum.IntEnum):
    ZERO = 0
    ONE = 1


@pytest.mark.parametrize(
    "rows",
    [
        column_rows([Grading.ONE, 1, 2]),
        column_rows([0, 1] * 100 + [Grading.ZERO]),
        column_rows([None, Grading.ONE, 2]),
    ],
    ids=["IntEnum in first row", "IntEnum in last row", "IntEnum beside None"],
)
def test_int_enum_in_an_int_column_raises(rows):
    assert flat_rows(rows) is None
    with pytest.raises(TypeError, match="Object of type Grading is not JSON serializable"):
        printed(rows)


ROW = {"grading": 1, "id": 2, "multiplicity": 1, "origin": "reducible"}


@pytest.mark.parametrize(
    "value",
    [
        [ROW, {**ROW, "extra": 0}],
        [ROW, {k: v for k, v in ROW.items() if k != "id"}],
        [ROW, {"Grading" if k == "grading" else k: v for k, v in ROW.items()}],
        [ROW, {}],
        [{}, {}],
        [ROW, {**ROW, "id": [1, 2]}],
        [ROW, {**ROW, "id": {"a": 1}}],
        [ROW, {**ROW, "id": []}],
        [1, ROW],
        [[ROW], ROW],
        ("a", ROW),
        [None],
    ],
    ids=repr,
)
def test_other_lists_decline_to_the_loop(value):
    assert flat_rows(value) is None
    assert printed(value) == dumped(value)


class StrKey(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        [ROW, {**ROW, "id": 2.0}],
        [ROW, collections.OrderedDict(ROW)],
        [{**ROW, 1: 0}, {**ROW, 1: 0}],
        [{1: 0}, {1: 0}],
        [ROW, {StrKey(k): v for k, v in ROW.items()}],
        [ROW, {**ROW, "origin": StrKey("reducible")}],
    ],
    ids=["float in last row", "dict subclass row", "int key in first row",
         "int keys only", "str subclass keys in last row", "str subclass value"],
)
def test_rows_that_a_record_cannot_hold_raise(value):
    assert flat_rows(value) is None
    with pytest.raises(TypeError):
        printed(value)
