"""The --json writer against ``json.dumps(indent=2, sort_keys=True)``, byte for byte."""

import contextlib
import io
import json
import math
import random

import pytest

from floerchains import cli
from test_cli import INPUT_ERRORS


def printed(record):
    """What ``--json`` prints for `record`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_record(record, True)
    return out.getvalue()


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
# and a lone surrogate
PIECES = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u03bb", "\u2014",
          "\u2028", "\ufeff", "\U0001f600", "\U0001d11e", "\ud834", "a", "Z", " ", ":", ","]
INTS = [0, 1, -1, 2**31, -(2**63) - 1, 2**64 + 1, 10**40, -(10**40)]


def fuzz_string(rng):
    return "".join(rng.choice(PIECES) for _ in range(rng.randrange(6)))


def fuzz_value(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return rng.choice([
            fuzz_string(rng),
            rng.choice(INTS),
            rng.randrange(-(2**70), 2**70),
            True,
            False,
            None,
        ])
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
