"""Command-line front end.

Subcommands mirror the supported families.  Every run prints either a
human-readable table or a single JSON object with the stable fields
input, generators, ranks, anchoring, conjectural, warnings (plus notes and
extras).  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional, Sequence

from . import complexes, covers, lens, signatures
from .arith import LaurentPoly, mod_inverse
from .complexes import (
    ChainRanks,
    GradedGenerators,
    euler_characteristic,
    montesinos_knot_complex,
    montesinos_link_complex,
    special_montesinos_complex,
    torus_alexander,
    casson_from_alexander,
    torus_complex,
    torus_even_seifert_data,
    two_bridge_generators,
)
from .covers import SeifertData, branched_cover_h1, cup_form, grading_shift_delta
from .errors import DomainError
from .seifert import casson, enumerate_irreducibles


def parse_pairs(text: str) -> SeifertData:
    """Parse the `a,b;a,b;...` Seifert-pair grammar."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad Seifert pair {chunk!r}; expected a,b")
        pairs.append((int(parts[0]), int(parts[1])))
    if not pairs:
        raise ValueError("empty Seifert data")
    return SeifertData(tuple(pairs))


def parse_alexander(text: str) -> LaurentPoly:
    """Parse `exp:coeff,exp:coeff,...` into a Laurent polynomial."""
    coeffs = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        e, _, c = chunk.partition(":")
        coeffs[int(e)] = coeffs.get(int(e), 0) + int(c)
    return LaurentPoly(coeffs)


def parse_block(text: str) -> List[int]:
    values = [int(x) for x in text.split(",")]
    if len(values) != 4:
        raise ValueError(f"expected four comma-separated counts, got {text!r}")
    return values


def _generator_rows(gens: GradedGenerators) -> List[Dict]:
    return [
        {
            "grading": e.grading,
            "multiplicity": e.multiplicity,
            "origin": e.origin,
            "id": e.class_id,
        }
        for e in gens.entries
    ]


def _record(
    input_echo: Dict,
    generators: Optional[GradedGenerators] = None,
    ranks: Optional[ChainRanks] = None,
    warnings: Sequence[str] = (),
    notes: Sequence[str] = (),
    extras: Optional[Dict] = None,
) -> Dict:
    record = {
        "input": input_echo,
        "generators": _generator_rows(generators) if generators else [],
        "ranks": list(ranks.r) if ranks else None,
        "anchoring": ranks.anchoring if ranks else None,
        "conjectural": bool(ranks.conjectural) if ranks else False,
        "warnings": list(warnings),
        "notes": list(notes),
        "extras": extras or {},
    }
    if ranks is not None and generators is not None and not generators.unknown:
        assert sum(ranks.r) == generators.total
    return record


def _print_record(record: Dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, indent=2, sort_keys=True))
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


def _cmd_two_bridge(args) -> Dict:
    gens = two_bridge_generators(args.p, args.q)
    ranks = gens.ranks()
    chi = euler_characteristic(ranks)
    return _record(
        {"command": "two-bridge", "p": args.p, "q": args.q},
        generators=gens,
        ranks=ranks,
        notes=(
            "differential vanishes for two-bridge knots; chain ranks equal "
            "homology ranks",
        ),
        extras={"euler_characteristic": chi.value, "total_rank": ranks.total},
    )


def _cmd_brieskorn(args) -> Dict:
    ranks = special_montesinos_complex(args.p, args.q, args.r)
    lam = casson(args.p, args.q, args.r)
    return _record(
        {"command": "brieskorn-knot", "p": args.p, "q": args.q, "r": args.r},
        ranks=ranks,
        extras={
            "casson": lam,
            "irreducible_classes": -2 * lam,
            "total_rank": ranks.total,
        },
    )


def _cmd_montesinos_knot(args) -> Dict:
    data = parse_pairs(args.pairs)
    block = parse_block(args.irreducible_block) if args.irreducible_block else None
    gens = montesinos_knot_complex(data, args.signature, block)
    ranks = gens.ranks()
    extras = {"h1_order": covers.seifert_h1_order(data)}
    if ranks:
        extras["total_rank"] = ranks.total
        extras["euler_characteristic"] = euler_characteristic(ranks).value
    return _record(
        {
            "command": "montesinos-knot",
            "pairs": list(map(list, data.pairs)),
            "signature": args.signature,
            "irreducible_block": block,
        },
        generators=gens,
        ranks=ranks,
        warnings=gens.warnings,
        extras=extras,
    )


def _cmd_torus(args) -> Dict:
    p, q = sorted((args.p, args.q))
    if math.gcd(p, q) != 1 or p < 2:
        raise ValueError(f"torus parameters must be coprime and >= 2, got ({p}, {q})")
    if p == 2:
        gens = two_bridge_generators(q, 1)
        ranks = gens.ranks()
        return _record(
            {"command": "torus", "p": args.p, "q": args.q},
            generators=gens,
            ranks=ranks,
            notes=(f"routed through the two-bridge pair ({q}, 1)",),
            extras={"total_rank": ranks.total},
        )
    if p % 2 == 0:
        # the Seifert route below takes the odd strand count first
        p, q = q, p
    if q % 2 == 0:
        data = torus_even_seifert_data(p, q)
        sign = signatures.torus_signature(p, q)
        block = parse_block(args.irreducible_block) if args.irreducible_block else None
        gens = montesinos_knot_complex(data, sign, block)
        ranks = gens.ranks()
        extras = {"signature": sign}
        if ranks:
            extras["total_rank"] = ranks.total
        return _record(
            {"command": "torus", "p": args.p, "q": args.q},
            generators=gens,
            ranks=ranks,
            warnings=gens.warnings,
            notes=(
                "even strand count: routed through the Seifert presentation "
                f"{list(map(list, data.pairs))} of the double cover",
            ),
            extras=extras,
        )
    result = torus_complex(p, q)
    return _record(
        {"command": "torus", "p": args.p, "q": args.q},
        ranks=result.ranks,
        warnings=("rank vector is conjectural; only the total rank is certified",),
        extras={
            "total_rank": result.total_rank,
            "special_grading": result.special_grading,
            "signature": signatures.torus_signature(p, q),
        },
    )


def _cmd_montesinos_link(args) -> Dict:
    data = parse_pairs(args.pairs)
    result = montesinos_link_complex(data, args.lk)
    warnings = list(result.warnings)
    notes = list(result.notes)
    extras = {
        "so3_classes": result.so3_classes,
        "su2_classes": result.su2_classes,
        "total_rank": result.total,
    }
    if result.split:
        extras["split"] = list(result.split)
    if args.alexander:
        lam = casson_from_alexander(parse_alexander(args.alexander))
        extras["casson_from_alexander"] = lam
        if -lam != result.so3_classes:
            warnings.append(
                f"class count {result.so3_classes} disagrees with -casson = {-lam}"
            )
        else:
            notes.append("class count cross-validated against the surgery-knot route")
    ranks = result.ranks
    if result.ambiguous:
        extras["candidates"] = [list(c.r) for c in result.candidates]
    else:
        chi = euler_characteristic(ranks)
        extras["euler_characteristic"] = f"+-{abs(chi.value)}"
        if result.split and 0 in result.split:
            notes.append(
                "generators sit in two gradings of equal parity; the "
                "differential vanishes and chain ranks equal homology ranks"
            )
    return _record(
        {
            "command": "montesinos-link",
            "pairs": list(map(list, data.pairs)),
            "lk": args.lk,
        },
        ranks=ranks,
        warnings=warnings,
        notes=notes,
        extras=extras,
    )


def _cmd_homology(args) -> Dict:
    extras: Dict = {}
    echo: Dict = {"command": "homology"}
    if args.alexander:
        delta = parse_alexander(args.alexander)
        hom = branched_cover_h1(delta)
        echo["alexander"] = args.alexander
        extras["b1"] = hom.b1
        extras["h1_order"] = "infinite" if hom.h1_order is None else hom.h1_order
    elif args.pairs:
        data = parse_pairs(args.pairs)
        order = covers.seifert_h1_order(data)
        echo["pairs"] = list(map(list, data.pairs))
        extras["b1"] = 1 if order == 0 else 0
        extras["h1_order"] = "infinite" if order == 0 else order
    else:
        raise ValueError("homology needs --alexander or --pairs")
    if args.lk is not None:
        echo["lk"] = args.lk
        extras["cup_form"] = cup_form(args.lk)
        extras["grading_shift"] = grading_shift_delta(args.lk)
    return _record(echo, extras=extras)


def _regress_corpus():
    """Built-in regression cases with their expected values.

    Each case returns (expected, actual) as comparable strings.
    """

    def two_bridge_case():
        ranks = complexes.two_bridge_complex(5, 3)
        indices = {
            ell: lens.index_plus_one(lens.LensRep(5, mod_inverse(3, 5), ell))
            for ell in (1, 2)
        }
        return "(1, 1, 2, 1) absolute, indices {1: 2, 2: 4}", (
            f"{ranks.r} {ranks.anchoring}, indices {indices}"
        )

    def brieskorn_case():
        ranks = special_montesinos_complex(2, 3, 7)
        lam = casson(2, 3, 7)
        count = len(enumerate_irreducibles(covers.SeifertData(((2, 1), (3, 1), (7, -6)))))
        return "(3, 2, 2, 2), casson -1, count 2", f"{ranks.r}, casson {lam}, count {count}"

    def montesinos_knot_case():
        data = SeifertData(((2, -1), (3, 1), (3, 1)))
        gens = montesinos_knot_complex(data, -6, (2, 0, 0, 2))
        ranks = gens.ranks()
        special = next(e.grading for e in gens.entries if e.origin == "special")
        reducible = sorted(
            e.grading for e in gens.entries if e.origin == "reducible"
        )
        return "(2, 1, 2, 2), special 2, reducible [1, 2]", (
            f"{ranks.r}, special {special}, reducible {reducible}"
        )

    def pretzel_link_case():
        data = SeifertData(((2, 1), (3, -1), (6, -1)))
        # the linking number is even; 4 is the value consistent with the
        # Euler-characteristic identity, recorded here as inferred
        result = montesinos_link_complex(data, 4)
        return "cyclic (0, 2, 0, 2), so3 1, su2 2", (
            f"{result.ranks.anchoring} {result.ranks.r}, "
            f"so3 {result.so3_classes}, su2 {result.su2_classes}"
        )

    def montesinos_link_case():
        data = SeifertData(((2, 1), (5, -2), (10, -1)))
        result = montesinos_link_complex(data, 4)
        lam = casson_from_alexander(torus_alexander(2, 5))
        return "cyclic (2, 4, 2, 4), classes 3, -casson 3", (
            f"{result.ranks.anchoring} {result.ranks.r}, "
            f"classes {result.so3_classes}, -casson {-lam}"
        )

    def torus_case():
        result = torus_complex(3, 5)
        return "total 9, conjectural (3, 2, 2, 2)", (
            f"total {result.total_rank}, "
            f"{'conjectural ' if result.ranks.conjectural else ''}{result.ranks.r}"
        )

    def torus_even_case():
        data = torus_even_seifert_data(3, 4)
        gens = montesinos_knot_complex(data, signatures.torus_signature(3, 4), (2, 0, 0, 2))
        return "(2, 1, 2, 2)", f"{gens.ranks().r}"

    def euler_sweep_case():
        bad = []
        for p in range(3, 46, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                ranks = complexes.two_bridge_complex(p, q)
                chi = euler_characteristic(ranks)
                if chi.value != 1 or ranks.total != p:
                    bad.append((p, q))
        expected = "chi = 1 and total = p for all p <= 45"
        return expected, expected if not bad else f"failures {bad}"

    def signature_case():
        fig8 = signatures.two_bridge_signature(5, 3)
        trefoil = signatures.two_bridge_signature(3, 1)
        torus_vals = [signatures.torus_signature(*pq) for pq in ((2, 3), (2, 5), (3, 4), (3, 5))]
        return "fig8 0, trefoil -2, torus [-2, -4, -6, -8]", (
            f"fig8 {fig8}, trefoil {trefoil}, torus {torus_vals}"
        )

    def hopf_case():
        return "cup 1, shift 0", f"cup {cup_form(1)}, shift {grading_shift_delta(1)}"

    return [
        ("two-bridge figure-eight", two_bridge_case),
        ("brieskorn (2,3,7)", brieskorn_case),
        ("montesinos-knot (2,-1)(3,1)(3,1)", montesinos_knot_case),
        ("pretzel link (2,1)(3,-1)(6,-1)", pretzel_link_case),
        ("montesinos-link (2,1)(5,-2)(10,-1)", montesinos_link_case),
        ("torus (3,5)", torus_case),
        ("torus (3,4) via seifert route", torus_even_case),
        ("two-bridge euler sweep", euler_sweep_case),
        ("signature anchors", signature_case),
        ("hopf cup form", hopf_case),
    ]


def _cmd_regress(args) -> int:
    failures = 0
    for name, case in _regress_corpus():
        if args.filter and args.filter not in name:
            continue
        expected, actual = case()
        ok = expected == actual
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}")
        if not ok or args.verbose:
            print(f"    expected: {expected}")
            print(f"    actual:   {actual}")
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
            options[key.strip().replace("-", "_")] = value.strip()
    return options


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floerchains",
        description=(
            "Generators, mod-4 gradings and rank vectors of singular "
            "instanton chain complexes via double branched covers"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON record")

    p = sub.add_parser("two-bridge", help="two-bridge knot of type -p/q")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    add_json(p)

    p = sub.add_parser("brieskorn-knot", help="Montesinos knot over a Brieskorn sphere")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    add_json(p)

    p = sub.add_parser("montesinos-knot", help="general three-fiber Montesinos knot")
    p.add_argument("--pairs", required=True, help='Seifert pairs "a,b;a,b;a,b"')
    p.add_argument("--signature", type=int, required=True, help="even knot signature")
    p.add_argument(
        "--irreducible-block",
        help='external grading pin "g0,g1,g2,g3" for the irreducible generators',
    )
    add_json(p)

    p = sub.add_parser("torus", help="torus knot")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--irreducible-block", help="grading pin for the even-q route")
    add_json(p)

    p = sub.add_parser("montesinos-link", help="two-component Montesinos link")
    p.add_argument("--pairs", required=True, help='Seifert pairs "a,b;a,b;a,b"')
    p.add_argument("--lk", type=int, help="linking number of the two components")
    p.add_argument(
        "--alexander",
        help='surgery-knot Alexander polynomial "exp:coeff,..." for cross-validation',
    )
    add_json(p)

    p = sub.add_parser("homology", help="double-branched-cover homology data")
    p.add_argument("--alexander", help='branch-set Alexander polynomial "exp:coeff,..."')
    p.add_argument("--pairs", help="Seifert pairs of the cover")
    p.add_argument("--lk", type=int, help="linking number for the cup form")
    add_json(p)

    p = sub.add_parser("regress", help="run the built-in regression corpus")
    p.add_argument("--filter", help="only run cases whose name contains this string")
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("config", help="run a command described by a key=value file")
    p.add_argument("path")
    add_json(p)

    return parser


_HANDLERS = {
    "two-bridge": _cmd_two_bridge,
    "brieskorn-knot": _cmd_brieskorn,
    "montesinos-knot": _cmd_montesinos_knot,
    "torus": _cmd_torus,
    "montesinos-link": _cmd_montesinos_link,
    "homology": _cmd_homology,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "config":
        options = _read_config(args.path)
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
                rebuilt.append("--" + key.replace("_", "-") + "=" + value)
        if args.json:
            rebuilt.append("--json")
        args = parser.parse_args(rebuilt)

    if args.command == "regress":
        return _cmd_regress(args)

    handler = _HANDLERS[args.command]
    try:
        record = handler(args)
    except DomainError as err:
        payload = {"error": err.name, "message": str(err)}
        if getattr(args, "json", False):
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"error: {err.name}: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _print_record(record, getattr(args, "json", False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
