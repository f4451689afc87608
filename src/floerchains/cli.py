"""Command-line front end.

Subcommands mirror the supported families.  Every input takes one path:
parse (a ``config`` file is rebuilt into argv and parsed again), then the
handler that ``build_parser`` bound on the family's subparser, which builds
the record with ``_record``; its ``input`` echoes every parsed argument by
one rule (``_echo``), and ``_record`` alone writes its rank facts: the
ranks and leading warnings of its generators, the total rank and Euler
number of any rank vector, and the warning of a conjectural one.  A routed
torus knot gets the record of the family it is routed to, two-bridge or
Montesinos knot, from the same function.
Parsing uses the process's one parser, built by the first ``build_parser``
call and shared by every later one; callers must not mutate it.  A parse hands argv
straight to the parser of its subcommand ``argv[0]``, which
``build_parser`` records as it adds it, instead of letting the top-level
parser pick it; the full parser parses argv again only when an argument is
left over or ``argv[0]`` names no subcommand, so every usage error keeps
argparse's own text and exit code 2.  A run prints a human-readable table
or one JSON object with the stable fields input, generators, ranks,
anchoring, conjectural, warnings (plus notes and extras), laid out as
``json.dumps(indent=2, sort_keys=True)`` would.
``regress`` takes no options: it replays the golden records of
``golden.jsonl`` through the same path, parses back the text ``--json``
would print and diffs each whole record, and checks that text byte for
byte against ``json.dumps``.
Exit codes: 0 success, 1 domain or input error (a JSON object with the
error name under --json), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Sequence, Tuple

from . import covers, signatures
from .complexes import (
    ABSOLUTE,
    ChainRanks,
    GradedGenerators,
    euler_characteristic,
    montesinos_knot_complex,
    montesinos_link_complex,
    special_montesinos_complex,
    torus_complex,
    torus_even_seifert_data,
    two_bridge_generators,
)
from .covers import SeifertData, branched_cover_h1
from .errors import DomainError, NotCoprimeError


def _int_pairs(
    text: str, sep: str, pair_sep: str, item: str, whole: str, usage: str
) -> List[Tuple[int, int]]:
    """The integer pairs `a<pair_sep>b` of a `sep`-separated list; blank items are skipped."""
    pairs = []
    for chunk in text.split(sep):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b = map(int, chunk.split(pair_sep))
        except ValueError:
            raise ValueError(f"bad {item} {chunk!r}; {usage}") from None
        pairs.append((a, b))
    if not pairs:
        raise ValueError(f"empty {whole}; {usage}")
    return pairs


def parse_pairs(text: str) -> SeifertData:
    """Parse the `a,b;a,b;...` Seifert-pair grammar."""
    usage = "--pairs takes integer pairs a,b;a,b;..."
    return SeifertData(_int_pairs(text, ";", ",", "Seifert pair", "Seifert data", usage))


def parse_alexander(text: str) -> Dict[int, int]:
    """Parse `exp:coeff,exp:coeff,...` into an {exponent: coefficient} dict; `0:0` is zero."""
    usage = "--alexander takes integer terms exp:coeff,..."
    coeffs = {}
    for e, c in _int_pairs(text, ",", ":", "Alexander term", "Alexander polynomial", usage):
        coeffs[e] = coeffs.get(e, 0) + c
    return coeffs


def parse_block(text: str) -> List[int]:
    """Parse the four integer gradings `g0,g1,g2,g3` of an irreducible-block pin."""
    try:
        g0, g1, g2, g3 = map(int, text.split(","))
    except ValueError:
        raise ValueError(
            f"bad grading pin {text!r}; --irreducible-block takes four integers g0,g1,g2,g3"
        ) from None
    return [g0, g1, g2, g3]


def _record(
    input_echo: Dict,
    generators: Optional[GradedGenerators] = None,
    ranks: Optional[ChainRanks] = None,
    warnings: Sequence[str] = (),
    notes: Sequence[str] = (),
    extras: Optional[Dict] = None,
) -> Dict:
    """A record; given `generators`, its ranks are theirs and their warnings
    come first.  A rank vector adds `total_rank` and `euler_characteristic`
    (``"+-|chi|"`` under cyclic anchoring) after `extras`, and a conjectural
    one its warning."""
    extras = dict(extras or {})
    if generators is not None:
        ranks = generators.ranks()
        warnings = (*generators.warnings, *warnings)
    if ranks is not None:
        chi = euler_characteristic(ranks)
        extras["total_rank"] = ranks.total
        extras["euler_characteristic"] = chi if ranks.anchoring == ABSOLUTE else f"+-{abs(chi)}"
        if ranks.conjectural:
            warnings = (*warnings, "rank vector is conjectural; only the total rank is certified")
    return {
        "input": input_echo,
        "generators": list(generators.entries) if generators else [],
        "ranks": list(ranks.r) if ranks else None,
        "anchoring": ranks.anchoring if ranks else None,
        "conjectural": bool(ranks.conjectural) if ranks else False,
        "warnings": list(warnings),
        "notes": list(notes),
        "extras": extras,
    }


# JSON text of each scalar type, by exact type
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _flat_rows(rows, newline: str) -> Optional[str]:
    """The items of the non-empty list `rows`, as `_write_json` lays them out
    between its brackets, if every item is an exact dict with the first
    item's set of str keys and scalar values; None otherwise.

    The keys are sorted and escaped once, into one row template.  Each
    column goes into it by the exact types of its values, with the text of
    `_JSON_SCALARS`: all ints as ``%d``; all strs as ``%s``, each distinct
    value escaped once; ints and Nones as ``%s`` of the int or ``null``.
    These three kinds cover every column a record holds.  Any other scalar
    mix (bools, strs beside ints or Nones) goes in value by value as
    ``%s`` of its `_JSON_SCALARS` text.
    """
    first = rows[0]
    if not first or {*map(type, rows)} != {dict}:
        return None
    if {*map(len, rows)} != {len(first)} or {*map(type, chain.from_iterable(rows))} != {str}:
        return None
    keys = sorted(first)
    try:
        values = [row[key] for row in rows for key in keys]
    except KeyError:  # a row with another key set
        return None
    width = len(keys)
    inner = newline + "  "
    fields = []
    for j, key in enumerate(keys):
        column = values[j::width]
        kind = {*map(type, column)}
        field = inner + encode_basestring_ascii(key).replace("%", "%%") + ": "
        if kind == {int}:
            fields.append(field + "%d")
            continue
        if kind == {str}:
            texts = {text: encode_basestring_ascii(text) for text in {*column}}
            values[j::width] = map(texts.__getitem__, column)
        elif kind <= {int, type(None)}:
            values[j::width] = map({None: "null"}.get, column, column)
        elif kind <= _JSON_SCALARS.keys():
            values[j::width] = [_JSON_SCALARS[type(value)](value) for value in column]
        else:
            return None
        fields.append(field + "%s")
    row = "{" + ",".join(fields) + newline + "}"
    return ("," + newline).join([row] * len(rows)) % tuple(values)


def _write_json(value, out: List[str], newline: str) -> None:
    """Append `value` to `out` as ``json.dumps(value, indent=2, sort_keys=True)``
    lays it out, `newline` being the line break and indent of its own level.

    Takes exactly the types a record holds (dict with str keys, list, tuple,
    str, int, bool, None); anything else, a float included, is a TypeError.
    A scalar takes the `_JSON_SCALARS` text of its exact type, looked up
    here only; strings go through the C escaper, since with ``indent`` set
    ``json.dumps`` runs CPython's pure-Python encoder, about twice as slow.
    A list of same-shape flat rows, such as a record's generators, is
    written in one batch by `_flat_rows`.  Any other list (rows with another
    key set, an empty or nested value, a float, a subclass, a non-str key)
    declines to the item-by-item loop, which raises the TypeErrors.
    """
    kind = type(value)
    encode = _JSON_SCALARS.get(kind)
    if encode is not None:
        out.append(encode(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        rows = _flat_rows(value, inner) if type(value[0]) is dict else None
        if rows is not None:
            out.append("[" + inner + rows + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_text(record: Dict) -> str:
    """The text ``--json`` prints for `record`, without its final newline."""
    chunks: List[str] = []
    _write_json(record, chunks, "\n")
    return "".join(chunks)


def _print_record(record: Dict, as_json: bool) -> None:
    if as_json:
        print(_json_text(record))
        return
    print(f"input: {record['input']}")
    if record["generators"]:
        print("generators (grading, multiplicity, origin):")
        for g in record["generators"]:
            grading = "?" if g["grading"] is None else g["grading"]
            tag = g["origin"] if g["id"] is None else f"{g['origin']}({g['id']})"
            print(f"  {grading}  x{g['multiplicity']}  {tag}")
    if record["ranks"] is not None:
        flag = " (conjectural)" if record["conjectural"] else ""
        print(f"ranks: {tuple(record['ranks'])}  anchoring: {record['anchoring']}{flag}")
    for key, value in record["extras"].items():
        print(f"{key}: {value}")
    for w in record["warnings"]:
        print(f"warning: {w}")
    for n in record["notes"]:
        print(f"note: {n}")


def _echo(args, pairs: Optional[SeifertData] = None, block: Optional[List[int]] = None) -> Dict:
    """A record's `input`: each argument the command's parser defines, as `args`
    holds it by dest (None if not given), without `handler` and `json`; the
    handler passes `--pairs` and `--irreducible-block` as it parsed them."""
    echo = {key: value for key, value in vars(args).items() if key not in ("handler", "json")}
    if pairs is not None:
        echo["pairs"] = list(map(list, pairs.pairs))
    if block is not None:
        echo["irreducible_block"] = block
    return echo


def _two_bridge_record(echo: Dict, p: int, q: int, notes: Sequence[str] = ()) -> Dict:
    """The record of the two-bridge knot (p, q), with `notes` after its own."""
    return _record(
        echo,
        generators=two_bridge_generators(p, q),
        notes=(
            "differential vanishes for two-bridge knots; chain ranks equal "
            "homology ranks",
            *notes,
        ),
    )


def _montesinos_knot_record(
    echo: Dict,
    data: SeifertData,
    sign: int,
    block: Optional[List[int]],
    notes: Sequence[str] = (),
    extras: Optional[Dict] = None,
) -> Dict:
    """The record of the Montesinos knot whose double cover has Seifert data
    `data` and whose signature is `sign`, with `notes` and `extras` added."""
    return _record(
        echo,
        generators=montesinos_knot_complex(data, sign, block),
        notes=notes,
        extras={"h1_order": covers.seifert_h1_order(data), **(extras or {})},
    )


def _cmd_two_bridge(args) -> Dict:
    return _two_bridge_record(_echo(args), args.p, args.q)


def _cmd_brieskorn(args) -> Dict:
    ranks = special_montesinos_complex(args.p, args.q, args.r)
    b = ranks.r[1]  # minus twice the Casson invariant
    return _record(_echo(args), ranks=ranks, extras={"casson": -b // 2, "irreducible_classes": b})


def _cmd_montesinos_knot(args) -> Dict:
    data = parse_pairs(args.pairs)
    block = None if args.irreducible_block is None else parse_block(args.irreducible_block)
    return _montesinos_knot_record(_echo(args, data, block), data, args.signature, block)


def _cmd_torus(args) -> Dict:
    p, q = sorted((args.p, args.q))
    message = f"torus parameters must be coprime and >= 2, got ({p}, {q})"
    if p < 2:
        raise ValueError(message)
    if math.gcd(p, q) != 1:
        raise NotCoprimeError(message)
    block = None if args.irreducible_block is None else parse_block(args.irreducible_block)
    if block is not None and (p == 2 or p * q % 2):
        # only the even-strand Seifert route has irreducible generators to pin
        raise ValueError(
            f"--irreducible-block applies only to torus knots with an even "
            f"strand count above 2, got ({p}, {q})"
        )
    echo = _echo(args, block=block)
    if p == 2:
        return _two_bridge_record(echo, q, 1, (f"routed through the two-bridge pair ({q}, 1)",))
    if p * q % 2:
        ranks = torus_complex(p, q)
        sign = -4 * ranks.r[1]  # the ranks are (1 + a, a, a, a), a = -signature/4
        return _record(echo, ranks=ranks, extras={"special_grading": sign % 4, "signature": sign})
    # exactly one strand count is even; the Seifert route takes the odd one first
    odd, even = (p, q) if q % 2 == 0 else (q, p)
    data = torus_even_seifert_data(odd, even)
    sign = signatures.torus_signature(odd, even)
    notes = (
        "even strand count: routed through the Seifert presentation "
        f"{list(map(list, data.pairs))} of the double cover",
    )
    return _montesinos_knot_record(echo, data, sign, block, notes, {"signature": sign})


def _cmd_montesinos_link(args) -> Dict:
    data = parse_pairs(args.pairs)
    result = montesinos_link_complex(data, args.lk)
    warnings = list(result.warnings)
    notes = list(result.notes)
    extras = {"so3_classes": result.so3_classes, "su2_classes": result.su2_classes}
    if args.alexander is not None:
        lam = covers.casson_from_alexander(parse_alexander(args.alexander))
        extras["casson_from_alexander"] = lam
        if -lam != result.so3_classes:
            warnings.append(
                f"class count {result.so3_classes} disagrees with -casson = {-lam}"
            )
        else:
            notes.append("class count cross-validated against the surgery-knot route")
    if result.split:
        extras["split"] = list(result.split)
        if 0 in result.split:
            notes.append(
                "generators sit in two gradings of equal parity; the "
                "differential vanishes and chain ranks equal homology ranks"
            )
    else:
        # no rank vector, so `_record` writes no total
        extras["candidates"] = [list(c.r) for c in result.candidates]
        extras["total_rank"] = result.total
    return _record(
        _echo(args, pairs=data),
        ranks=result.ranks,
        warnings=warnings,
        notes=notes,
        extras=extras,
    )


def _cmd_homology(args) -> Dict:
    data = None if args.pairs is None else parse_pairs(args.pairs)
    if data is None:
        order = branched_cover_h1(parse_alexander(args.alexander))
    else:
        order = covers.seifert_h1_order(data)
    # an order of 0 encodes the infinite H1 of a cover with b1 = 1
    extras = {"b1": 1 if order == 0 else 0, "h1_order": "infinite" if order == 0 else order}
    if args.lk is not None:
        # the mod-2 cup product on H^1 of the cover is lk mod 2; the mod-4
        # grading shift is 2*delta with delta = 1 - cup_form
        extras["cup_form"] = args.lk % 2
        extras["grading_shift"] = 1 - args.lk % 2
    return _record(_echo(args, pairs=data), extras=extras)


def _golden_cases() -> List[Dict]:
    """The golden corpus: one {"name", "argv", "record"} object per line."""
    path = os.path.join(os.path.dirname(__file__), "golden.jsonl")
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _golden_diff(case: Dict) -> List[str]:
    """One line per top-level key where the replayed record, parsed back from
    the text ``--json`` prints, differs from the golden one, and one more if
    that text is not laid out byte for byte as ``json.dumps`` lays it out."""
    _, record = _evaluate(_parse(case["argv"]))
    try:
        text = _json_text(record) + "\n"
        actual = json.loads(text)
    except (TypeError, ValueError) as err:
        return [f"--json output: {type(err).__name__}: {err}"]
    expected = case["record"]
    problems = [
        f"{key}: expected {expected.get(key)!r}, actual {actual.get(key)!r}"
        for key in sorted(expected.keys() | actual.keys())
        if expected.get(key) != actual.get(key)
    ]
    reference = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if text != reference:
        at = len(os.path.commonprefix([text, reference]))
        problems.append(
            f"--json layout: differs from json.dumps(indent=2, sort_keys=True) at "
            f"character {at}: {text[at:at + 20]!r} instead of {reference[at:at + 20]!r}"
        )
    return problems


def _cmd_regress() -> int:
    failures = 0
    for case in _golden_cases():
        problems = _golden_diff(case)
        failures += bool(problems)
        print(f"[{'FAIL' if problems else 'PASS'}] {case['name']}")
        for line in problems:
            print(f"    {line}")
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing case(s)")
    return 0 if failures == 0 else 1


def _read_config(path: str) -> Dict[str, str]:
    options = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            options[key.strip().replace("_", "-")] = value.strip()
    return options


# each subcommand's parser by name, recorded by `build_parser` as it adds them
_SUBPARSERS: Dict[str, argparse.ArgumentParser] = {}


class _StoreOne(argparse.Action):
    """argparse's default store, except that a value of `--` joined to its
    flag (`--pairs=--`) is a usage error: argparse drops that `--` and would
    store an empty list in place of the value."""

    def __call__(self, parser, namespace, values, option_string=None):
        if type(values) is list:
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and shared after it.

    Each parse fills a fresh namespace and no argument has a mutable default,
    so reuse carries nothing between inputs.  Callers must not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="floerchains",
        description=(
            "Generators, mod-4 gradings and rank vectors of singular "
            "instanton chain complexes via double branched covers"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler=None, **kwargs) -> argparse.ArgumentParser:
        _SUBPARSERS[name] = subparser = sub.add_parser(name, **kwargs)
        subparser.register("action", None, _StoreOne)
        subparser.set_defaults(handler=handler)
        return subparser

    p = add("two-bridge", _cmd_two_bridge, help="two-bridge knot of type -p/q")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)

    p = add("brieskorn-knot", _cmd_brieskorn, help="Montesinos knot over a Brieskorn sphere")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)

    p = add("montesinos-knot", _cmd_montesinos_knot, help="general three-fiber Montesinos knot")
    p.add_argument("--pairs", required=True, help='Seifert pairs "a,b;a,b;a,b"')
    p.add_argument("--signature", type=int, required=True, help="even knot signature")
    p.add_argument(
        "--irreducible-block",
        help='external grading pin "g0,g1,g2,g3" for the irreducible generators',
    )

    p = add("torus", _cmd_torus, help="torus knot")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--irreducible-block", help="grading pin for the even-q route")

    p = add("montesinos-link", _cmd_montesinos_link, help="two-component Montesinos link")
    p.add_argument("--pairs", required=True, help='Seifert pairs "a,b;a,b;a,b"')
    p.add_argument("--lk", type=int, help="linking number of the two components")
    p.add_argument(
        "--alexander",
        help='surgery-knot Alexander polynomial "exp:coeff,..." for cross-validation',
    )

    p = add("homology", _cmd_homology, help="double-branched-cover homology data")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--alexander", help='branch-set Alexander polynomial "exp:coeff,..."')
    source.add_argument("--pairs", help="Seifert pairs of the cover")
    p.add_argument("--lk", type=int, help="linking number for the cup form")

    add("regress", help="run the built-in regression corpus")

    p = add("config", help="run a command described by a key=value file")
    p.add_argument("path")

    for name, p in _SUBPARSERS.items():
        if name != "regress":
            p.add_argument("--json", action="store_true", help="emit a JSON record")
    return parser


def _dispatch(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """Parse argv with the parser of its subcommand `argv[0]`.

    The top-level parser would only pick that subparser and hand it the rest
    of argv.  Where anything is left over, or `argv[0]` names no subcommand,
    the full parser parses argv again, so every usage error keeps its text.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    subparser = _SUBPARSERS.get(argv[0]) if argv else None
    if subparser is not None:
        args, rest = subparser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def _parse(argv: Optional[Sequence[str]]):
    """Parse argv; a config file is rebuilt into argv and parsed again."""
    args = _dispatch(argv)
    if args.command != "config":
        return args
    parser = build_parser()
    try:
        options = _read_config(args.path)
    except (OSError, UnicodeDecodeError) as err:
        parser.error(f"cannot read config file {args.path}: {err}")
    command = options.pop("command", None)
    if command is None:
        parser.error("config file must set command=...")
    rebuilt = [command]
    positional = ("p", "q", "r") if command in ("brieskorn-knot", "torus") else ()
    for key in positional:
        if key in options:
            rebuilt.append(options.pop(key))
    for key, value in options.items():
        if command == "two-bridge" and key in ("p", "q"):
            rebuilt.extend([f"-{key}", value])
        else:
            # the joined form keeps values with a leading dash intact
            rebuilt.append(f"--{key}={value}")
    if args.json:
        rebuilt.append("--json")
    return _dispatch(rebuilt)


def _evaluate(args) -> Tuple[int, Dict]:
    """Exit code and record of a parsed family command; errors become a record."""
    try:
        return 0, args.handler(args)
    except (DomainError, ValueError) as err:
        return 1, {"error": type(err).__name__, "message": str(err)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if args.command == "regress":
        return _cmd_regress()
    code, record = _evaluate(args)
    if code and not args.json:
        print(f"error: {record['error']}: {record['message']}", file=sys.stderr)
    else:
        _print_record(record, args.json)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
