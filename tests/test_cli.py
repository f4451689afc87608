import argparse
import copy
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import floerchains
from floerchains import arith, cli, complexes, covers, lens, seifert, signatures
from floerchains.cli import _record, main, parse_alexander, parse_pairs
from floerchains.complexes import GradedGenerators, _row, two_bridge_generators
from floerchains.signatures import torus_signature

GOLDEN = cli._golden_cases()


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


CHILD_MEMORY_BYTES = 512 * 2**20


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


def run_module(*args, timeout):
    """Run ``python <args>`` with this checkout's package on the path.

    The child's address space is capped at 512 MB, so a run whose memory
    would grow without bound fails with a ``MemoryError`` instead.
    """
    src = Path(floerchains.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        preexec_fn=_cap_memory,
    )


# argv that parse but exit 1 with a ValueError
INPUT_ERRORS = [
    ["two-bridge", "-p", "4", "-q", "1"],
    ["montesinos-knot", "--pairs", "2,x", "--signature=0"],
    ["homology", "--alexander="],
    ["homology", "--pairs="],
    ["torus", "3", "5", "--irreducible-block", "2,0,0,2"],
    ["torus", "2", "5", "--irreducible-block", "9,9"],
    # an empty value is a bad value, not an absent flag
    ["montesinos-link", "--pairs", "2,1;5,-2;10,-1", "--lk", "4", "--alexander="],
    ["torus", "3", "4", "--irreducible-block="],
    ["montesinos-knot", "--pairs", "2,-1;3,1;3,1", "--signature=-6", "--irreducible-block="],
    ["montesinos-knot", "--pairs", "2,-1;3,1;3,1", "--signature=-6", "--irreducible-block=2,0,0"],
    ["montesinos-link", "--pairs", "2,1;5,-2;10,-1", "--lk", "4", "--alexander=1:x"],
    ["homology", "--alexander=1:x"],
    ["homology", "--pairs", "2,1;3"],
]
CONJECTURAL = "rank vector is conjectural; only the total rank is certified"
PAIRS_GRAMMAR = "--pairs takes integer pairs a,b;a,b;..."
ALEXANDER_GRAMMAR = "--alexander takes integer terms exp:coeff,..."
BLOCK_GRAMMAR = "--irreducible-block takes four integers g0,g1,g2,g3"


def count_calls(monkeypatch, bindings):
    """Wrap every (module, name) binding of one function with a shared call list."""
    calls = []
    for module, name in bindings:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestParsing:
    def test_pairs(self):
        data = parse_pairs("2,1;3,-1;6,-1")
        assert data.pairs == ((2, 1), (3, -1), (6, -1))

    def test_pairs_reject_garbage(self):
        with pytest.raises(ValueError):
            parse_pairs("2;3")

    def test_blank_items_are_skipped(self):
        assert parse_pairs("2,-1;;3,1;3,1").pairs == ((2, -1), (3, 1), (3, 1))
        assert parse_pairs(" 2,-1 ; ;3, 1;3,1; ").pairs == ((2, -1), (3, 1), (3, 1))
        assert parse_alexander("-1:1,,0:-1, ,1:1,") == {-1: 1, 0: -1, 1: 1}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["homology", "--pairs=2,1;2,x"], f"bad Seifert pair '2,x'; {PAIRS_GRAMMAR}"),
            (["homology", "--pairs="], f"empty Seifert data; {PAIRS_GRAMMAR}"),
            (["homology", "--pairs=;;"], f"empty Seifert data; {PAIRS_GRAMMAR}"),
            (["homology", "--alexander=1:1, 0:x"],
             f"bad Alexander term '0:x'; {ALEXANDER_GRAMMAR}"),
            (["homology", "--alexander="], f"empty Alexander polynomial; {ALEXANDER_GRAMMAR}"),
            (["homology", "--alexander=,,"], f"empty Alexander polynomial; {ALEXANDER_GRAMMAR}"),
            (["torus", "3", "4", "--irreducible-block=2,0,0"],
             f"bad grading pin '2,0,0'; {BLOCK_GRAMMAR}"),
            (["torus", "3", "4", "--irreducible-block="], f"bad grading pin ''; {BLOCK_GRAMMAR}"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_grammar_error_text(self, argv, message):
        assert cli._evaluate(cli._parse(argv)) == (1, {"error": "ValueError", "message": message})

    def test_alexander(self):
        assert parse_alexander("-1:1,0:-1,1:1") == {-1: 1, 0: -1, 1: 1}
        # a split link's Alexander polynomial is 0; repeated exponents add up
        assert parse_alexander("0:0") == {0: 0}
        assert parse_alexander("1:2, 0:1,1:-2") == {1: 0, 0: 1}


class TestTwoBridgeCommand:
    def test_json_figure_eight(self, capsys):
        code, out, _ = run(capsys, "two-bridge", "-p", "5", "-q", "3", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["ranks"] == [1, 1, 2, 1]
        assert record["anchoring"] == "absolute"
        assert record["conjectural"] is False
        assert record["warnings"] == []
        assert sum(g["multiplicity"] for g in record["generators"]) == 5

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "two-bridge", "-p", "7", "-q", "3", "--json")
        record = json.loads(out)
        assert json.loads(json.dumps(record)) == record

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "two-bridge", "-p", "5", "-q", "3")
        assert code == 0
        assert "ranks: (1, 1, 2, 1)" in out
        assert "absolute" in out

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run(capsys, "two-bridge", "-p", "9", "-q", "3")
        assert code == 1
        assert "NotCoprime" in err

    def test_p_range(self, capsys):
        # p = 1 is the unknot, one special generator; the message names the
        # range the command accepts
        code, out, _ = run(capsys, "two-bridge", "-p", "1", "-q", "1", "--json")
        assert code == 0
        assert json.loads(out)["ranks"] == [1, 0, 0, 0]
        for p in ("4", "0", "-3"):
            code, out, _ = run(capsys, "two-bridge", "-p", p, "-q", "1", "--json")
            assert code == 1
            assert json.loads(out) == {
                "error": "ValueError",
                "message": f"p must be odd and >= 1, got {p}",
            }

    def test_domain_error_json(self, capsys):
        code, out, _ = run(capsys, "two-bridge", "-p", "9", "-q", "3", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "NotCoprimeError"

    @pytest.mark.parametrize("argv", INPUT_ERRORS, ids=" ".join)
    def test_input_error_json(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValueError"
        assert payload["message"]
        assert err == ""

    @pytest.mark.parametrize(
        "argv, grammar",
        [
            (["montesinos-knot", "--pairs", "2,x", "--signature=0"], PAIRS_GRAMMAR),
            (["homology", "--pairs="], PAIRS_GRAMMAR),
            (["homology", "--pairs", "2,1;3"], PAIRS_GRAMMAR),
            (["homology", "--alexander="], ALEXANDER_GRAMMAR),
            (["homology", "--alexander=1:x"], ALEXANDER_GRAMMAR),
            (["homology", "--alexander=1:2:3"], ALEXANDER_GRAMMAR),
            (["torus", "3", "4", "--irreducible-block="], BLOCK_GRAMMAR),
            (["torus", "3", "4", "--irreducible-block=2,0,0"], BLOCK_GRAMMAR),
            (["torus", "3", "4", "--irreducible-block=2,0,0,x"], BLOCK_GRAMMAR),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_bad_flag_value_names_flag_and_grammar(self, capsys, argv, grammar):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "ValueError"
        assert grammar in payload["message"]

    def test_large_pair_finishes(self):
        # dense elimination on the Goeritz form is cubic in p at q = p - 1
        # and runs far past the timeout at this size
        argv = ["two-bridge", "-p", "10001", "-q", "10000", "--json"]
        done = run_module("-m", "floerchains.cli", *argv, timeout=60)
        assert done.returncode == 0, done.stderr
        record = json.loads(done.stdout)
        assert record["ranks"] == [2501, 2500, 2500, 2500]
        assert record["extras"]["total_rank"] == 10001
        special = [g for g in record["generators"] if g["origin"] == "special"]
        assert [g["grading"] for g in special] == [0]


FIBERS = "need exactly 3 exceptional fibers, got "
# (argv, error, message) of the Seifert routes: every route checks the fiber
# count first; the knot route then checks |H1| and flatness, the link route
# that the cover is a homology S^1 x S^2 of a two-component link
SEIFERT_ERRORS = [
    (["montesinos-knot", "--signature=0", "--pairs", "2,1;3,1"],
     "UnsupportedFiberCountError", FIBERS + "((2, 1), (3, 1))"),
    (["montesinos-knot", "--signature=0", "--pairs", "2,1;3,1;5,1;7,1"],
     "UnsupportedFiberCountError", FIBERS + "((2, 1), (3, 1), (5, 1), (7, 1))"),
    (["montesinos-knot", "--signature=0", "--pairs", "1,1;1,2"],
     "UnsupportedFiberCountError", FIBERS + "((1, 3),)"),
    (["montesinos-knot", "--signature=0", "--pairs", "2,1;3,-1;6,-1"],
     "InfiniteH1Error", "first homology is infinite"),
    (["montesinos-knot", "--signature=0", "--pairs", "2,1;2,1;3,1"],
     "EvenOrderError", "|H1| = 16 is even"),
    (["montesinos-knot", "--signature=0", "--pairs", "3,1;3,1;3,1"],
     "FlatCobordismError",
     "central fiber class survives in H1; characters do not extend flatly"),
    (["montesinos-knot", "--pairs", "2,-1;3,1;3,1", "--signature=1"],
     "ValueError", "knot signatures are even, got 1"),
    (["montesinos-link", "--pairs", "2,1;3,1;7,-6"],
     "NotHomologyS1xS2Error", "|H1| = 1, expected a homology S^1 x S^2"),
    (["montesinos-link", "--pairs", "2,1;4,-1;4,-1"],
     "NotHomologyS1xS2Error", "H1(.; Z/2) is not Z/2; not a two-component link cover"),
    (["montesinos-link", "--pairs", "2,1;3,1"],
     "UnsupportedFiberCountError", FIBERS + "((2, 1), (3, 1))"),
]


class TestOtherCommands:
    @pytest.mark.parametrize(
        "argv, error, message", SEIFERT_ERRORS, ids=[" ".join(row[0]) for row in SEIFERT_ERRORS]
    )
    def test_seifert_error_record(self, capsys, argv, error, message):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1
        assert json.loads(out) == {"error": error, "message": message}
        assert err == ""

    def test_brieskorn(self, capsys):
        code, out, _ = run(capsys, "brieskorn-knot", "2", "3", "7", "--json")
        record = json.loads(out)
        assert code == 0
        assert record["ranks"] == [3, 2, 2, 2]
        assert record["extras"]["casson"] == -1

    def test_large_brieskorn_counts_in_bounded_memory(self):
        # 84 million irreducible classes: a list of them needs about 12 GB,
        # the count needs a few MB; the value is the Dedekind-sum formula's
        argv = ["brieskorn-knot", "1001", "1003", "1007", "--json"]
        done = run_module("-m", "floerchains.cli", *argv, timeout=60)
        assert done.returncode == 0, done.stderr
        extras = json.loads(done.stdout)["extras"]
        assert extras["casson"] == -42126168
        assert extras["irreducible_classes"] == 84252336

    def test_montesinos_knot(self, capsys):
        code, out, _ = run(
            capsys,
            "montesinos-knot",
            "--pairs",
            "2,-1;3,1;3,1",
            "--signature",
            "-6",
            "--irreducible-block",
            "2,0,0,2",
            "--json",
        )
        record = json.loads(out)
        assert code == 0
        assert record["ranks"] == [2, 1, 2, 2]

    def test_montesinos_knot_partial(self, capsys):
        code, out, _ = run(
            capsys, "montesinos-knot", "--pairs", "2,-1;3,1;3,1", "--signature", "-6", "--json"
        )
        record = json.loads(out)
        assert code == 0
        assert record["ranks"] is None
        assert any("unknown gradings" in w for w in record["warnings"])

    def test_montesinos_link(self, capsys):
        code, out, _ = run(
            capsys, "montesinos-link", "--pairs", "2,1;3,-1;6,-1", "--lk", "4", "--json"
        )
        record = json.loads(out)
        assert code == 0
        assert record["ranks"] == [0, 2, 0, 2]
        assert record["anchoring"] == "cyclic"
        assert record["extras"]["so3_classes"] == 1

    @pytest.mark.parametrize("pairs", ["2,1;3,-1;6,-1", "2,-1;3,-2;6,7"])
    def test_one_class_link_split_is_determined(self, pairs):
        # one SO(3) class admits the one split (1, 0), so no --lk is needed
        records = []
        for lk in ([], ["--lk", "4"], ["--lk", "-4"]):
            code, record = cli._evaluate(cli._parse(["montesinos-link", "--pairs", pairs, *lk]))
            assert code == 0
            record.pop("input")
            records.append(record)
        assert records[0] == records[1] == records[2]
        assert records[0]["ranks"] == [0, 2, 0, 2]
        assert records[0]["extras"]["split"] == [1, 0]
        assert "candidates" not in records[0]["extras"]
        assert not any("ambiguous split" in w for w in records[0]["warnings"])

    def test_montesinos_link_cross_validation(self, capsys):
        code, out, _ = run(
            capsys,
            "montesinos-link",
            "--pairs",
            "2,1;5,-2;10,-1",
            "--lk",
            "4",
            "--alexander=-2:1,-1:-1,0:1,1:-1,2:1",
            "--json",
        )
        record = json.loads(out)
        assert code == 0
        assert record["ranks"] == [2, 4, 2, 4]
        assert record["extras"]["casson_from_alexander"] == -3
        assert any("cross-validated" in n for n in record["notes"])

    def test_montesinos_link_disagreeing_alexander(self, capsys):
        # the unknot's polynomial gives casson 0 against one class: a warning, not an error
        code, out, _ = run(
            capsys, "montesinos-link", "--pairs", "2,1;3,-1;6,-1", "--lk", "4",
            "--alexander", "0:1", "--json",
        )
        record = json.loads(out)
        assert code == 0
        assert record["extras"]["casson_from_alexander"] == 0
        assert "class count 1 disagrees with -casson = 0" in record["warnings"]
        assert not any("cross-validated" in n for n in record["notes"])

    def test_torus_odd(self, capsys):
        code, out, _ = run(capsys, "torus", "3", "5", "--json")
        record = json.loads(out)
        assert code == 0
        assert record["ranks"] == [3, 2, 2, 2]
        assert record["conjectural"] is True
        assert record["extras"]["total_rank"] == 9

    def test_torus_even_routed(self, capsys):
        code, out, _ = run(
            capsys, "torus", "3", "4", "--irreducible-block", "2,0,0,2", "--json"
        )
        record = json.loads(out)
        assert code == 0
        assert record["ranks"] == [2, 1, 2, 2]

    def test_torus_two_strands(self, capsys):
        code, out, _ = run(capsys, "torus", "2", "5", "--json")
        record = json.loads(out)
        assert code == 0
        assert sum(record["ranks"]) == 5

    @pytest.mark.parametrize("p,q", [(4, 5), (6, 7), (8, 5)])
    def test_torus_even_smaller_strand_count(self, capsys, p, q):
        records = []
        for argv in ((p, q), (q, p)):
            code, out, _ = run(capsys, "torus", *map(str, argv), "--json")
            assert code == 0
            records.append(json.loads(out))
        first, second = records
        assert first["ranks"] == second["ranks"]
        assert first["generators"] == second["generators"]
        special = [g for g in first["generators"] if g["origin"] == "special"]
        assert [g["grading"] for g in special] == [torus_signature(p, q) % 4]

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["torus", "3", "9"], "NotCoprimeError"),
            (["torus", "9", "6"], "NotCoprimeError"),
            # the strand-count check comes first, also where gcd(p, q) > 1
            (["torus", "0", "5"], "ValueError"),
            (["torus", "1", "5"], "ValueError"),
            (["torus", "-3", "9"], "ValueError"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_torus_parameter_errors(self, capsys, argv, error):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1 and err == ""
        p, q = sorted(map(int, argv[1:]))
        assert json.loads(out) == {
            "error": error,
            "message": f"torus parameters must be coprime and >= 2, got ({p}, {q})",
        }

    def test_torus_route_follows_parity_in_either_order(self):
        # every coprime 2 <= p < q <= 40: the route is the two-bridge pair
        # iff p == 2, the conjectural odd route iff both counts are odd and
        # the Seifert route otherwise, and only that route takes a pin
        def same_in_either_order(p, q, *extra):
            # the record --json prints; TestGolden and the writer tests pin its text
            outcomes = []
            block = [2, 0, 0, 2] if extra else None
            for a, b in ((p, q), (q, p)):
                code, record = cli._evaluate(cli._parse(["torus", str(a), str(b), *extra]))
                if code == 0:
                    echo = {"command": "torus", "p": a, "q": b, "irreducible_block": block}
                    assert record.pop("input") == echo
                outcomes.append((code, record))
            assert outcomes[0] == outcomes[1], (p, q, extra)
            return outcomes[0]

        refused = "--irreducible-block applies only to torus knots"
        fitted = 0
        for p in range(2, 41):
            for q in range(p + 1, 41):
                if math.gcd(p, q) != 1:
                    continue
                seifert = p > 2 and p * q % 2 == 0
                code, record = same_in_either_order(p, q)
                assert code == 0, (p, q)
                notes = " ".join(record["notes"])
                assert ("routed through the two-bridge pair" in notes) == (p == 2), (p, q)
                assert record["conjectural"] == (p * q % 2 == 1), (p, q)
                assert ("routed through the Seifert presentation" in notes) == seifert, (p, q)
                code, record = same_in_either_order(p, q, "--irreducible-block", "2,0,0,2")
                # a pin the route takes may still not fit its irreducible count
                assert (code == 1 and record["message"].startswith(refused)) == (not seifert)
                fitted += code == 0
        assert fitted  # (3, 4) among others

    def test_routed_torus_record_is_the_routed_family_record(self):
        # every coprime 2 <= p < q <= 40 off the odd route: T(2, q) is the
        # two-bridge record of (q, 1), and an even-strand torus knot is the
        # montesinos-knot record of the Seifert data its note prints, at its
        # signature; only the input, the routed note and the signature extra
        # tell them apart, also under a pin and in the error a pin can raise
        seifert_note = re.compile(
            r"even strand count: routed through the Seifert presentation "
            r"(\[.*\]) of the double cover"
        )

        def outcome(argv):
            code, record = cli._evaluate(cli._parse(argv))
            if code == 0:
                record.pop("input")
            return code, record

        fitted = 0
        for p in range(2, 41):
            for q in range(p + 1, 41):
                if math.gcd(p, q) != 1 or p * q % 2:
                    continue
                code, torus = outcome(["torus", str(p), str(q)])
                assert code == 0, (p, q)
                note = torus["notes"].pop()
                if p == 2:
                    assert note == f"routed through the two-bridge pair ({q}, 1)"
                    assert (0, torus) == outcome(["two-bridge", "-p", str(q), "-q", "1"]), q
                    continue
                pairs = json.loads(seifert_note.fullmatch(note)[1])
                sigma = torus["extras"].pop("signature")
                assert sigma == torus_signature(p, q)
                knot = [
                    "montesinos-knot",
                    "--pairs=" + ";".join(f"{a},{b}" for a, b in pairs),
                    f"--signature={sigma}",
                ]
                assert (0, torus) == outcome(knot), (p, q)
                pin = ["--irreducible-block=2,0,0,2"]
                code, pinned = outcome(["torus", str(p), str(q), *pin])
                if code == 0:
                    assert pinned["notes"].pop() == note
                    assert pinned["extras"].pop("signature") == sigma
                    fitted += 1
                assert (code, pinned) == outcome(knot + pin), (p, q)
        assert fitted  # (3, 4) among others

    def test_every_knot_with_ranks_has_euler_number_one(self):
        # a knot's chain complex has Euler number 1 on every route: each
        # pairwise coprime Brieskorn triple 2 <= p < q < r < 30, each
        # coprime torus pair 2 <= p < q <= 40 in both orders, and each
        # coprime two-bridge pair with odd 3 <= p <= 45, whose total rank is p
        two_bridge = [
            ["two-bridge", "-p", str(p), "-q", str(q)]
            for p in range(3, 46, 2)
            for q in range(1, p)
            if math.gcd(p, q) == 1
        ]
        assert len(two_bridge) == 422
        argvs = two_bridge + [
            ["brieskorn-knot", str(p), str(q), str(r)]
            for p in range(2, 30)
            for q in range(p + 1, 30)
            for r in range(q + 1, 30)
            if math.gcd(p, q) == math.gcd(p, r) == math.gcd(q, r) == 1
        ]
        argvs += [
            ["torus", str(a), str(b)]
            for p in range(2, 41)
            for q in range(p + 1, 41)
            if math.gcd(p, q) == 1
            for a, b in ((p, q), (q, p))
        ]
        ranked = 0
        for argv in argvs:
            code, record = cli._evaluate(cli._parse(argv))
            assert code == 0, argv
            if argv[0] == "two-bridge":
                assert record["extras"].get("euler_characteristic") == 1, argv
                assert record["extras"].get("total_rank") == int(argv[2]), argv
            if record["ranks"] is not None:
                ranked += 1
                assert record["extras"].get("euler_characteristic") == 1, argv
                assert_rank_facts(record, argv)
        assert ranked > len(argvs) // 2

    def test_homology_alexander(self, capsys):
        code, out, _ = run(
            capsys, "homology", "--alexander=-1:1,0:-1,1:1", "--json"
        )
        record = json.loads(out)
        assert code == 0
        assert record["extras"] == {"b1": 0, "h1_order": 3}

    def test_homology_pairs_with_lk(self, capsys):
        code, out, _ = run(
            capsys, "homology", "--pairs", "2,1;3,-1;6,-1", "--lk", "4", "--json"
        )
        record = json.loads(out)
        assert record["extras"]["h1_order"] == "infinite"
        assert record["extras"]["b1"] == 1
        assert record["extras"]["cup_form"] == 0
        assert record["extras"]["grading_shift"] == 1

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["two-bridge", "-p", "5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "table"])
    def test_closed_stdout_exits_1_quietly(self, mode):
        # about 0.5 MB in either mode, more than a pipe holds, so the child is
        # still writing when the reader closes the pipe after 10 bytes
        src = Path(floerchains.__file__).resolve().parents[1]
        child = subprocess.Popen(
            [sys.executable, "-m", "floerchains.cli", "two-bridge", "-p", "20001", "-q", "7", *mode],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["homology"],
            ["homology", "--alexander=-1:1,0:-1,1:1", "--pairs=2,1;3,1;5,-4"],
        ],
        ids=" ".join,
    )
    def test_homology_takes_exactly_one_source(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--json"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""


SAMPLE_COMMANDS = [
    ["two-bridge", "-p", "5", "-q", "3"],
    ["two-bridge", "-p", "13", "-q", "5"],
    ["brieskorn-knot", "2", "3", "7"],
    ["montesinos-knot", "--pairs", "2,-1;3,1;3,1", "--signature", "-6",
     "--irreducible-block", "2,0,0,2"],
    ["montesinos-knot", "--pairs", "2,-1;3,1;3,1", "--signature", "-6"],
    ["torus", "3", "5"],
    ["torus", "3", "4"],
    ["torus", "2", "7"],
    ["montesinos-link", "--pairs", "2,1;3,-1;6,-1", "--lk", "4"],
    ["montesinos-link", "--pairs", "2,1;3,-1;6,-1"],
    ["montesinos-link", "--pairs", "2,1;5,-2;10,-1"],
    ["montesinos-link", "--pairs", "2,1;5,-2;10,-1", "--lk", "4",
     "--alexander=-2:1,-1:-1,0:1,1:-1,2:1"],
    ["montesinos-link", "--pairs", "2,1;3,-1;6,-1", "--lk", "4", "--alexander", "0:1"],
    ["homology", "--alexander=-1:1,0:-1,1:1"],
    ["homology", "--pairs", "2,1;3,-1;6,-1", "--lk", "4"],
]



def config_text(argv):
    """The config-file form of a family argv: one `key = value` line per argument."""
    lines = [f"command = {argv[0]}"]
    positional = iter("pqr")
    rest = iter(argv[1:])
    for token in rest:
        if token.startswith("-"):
            key, joined, value = token.lstrip("-").partition("=")
            lines.append(f"{key} = {value if joined else next(rest)}")
        else:
            lines.append(f"{next(positional)} = {token}")
    return "\n".join(lines) + "\n"


class TestEveryCommand:
    @pytest.mark.parametrize("argv", SAMPLE_COMMANDS, ids=lambda a: " ".join(a))
    def test_table_mode_succeeds(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out

    @pytest.mark.parametrize("argv", SAMPLE_COMMANDS, ids=lambda a: " ".join(a))
    def test_json_round_trips(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        record = json.loads(out)
        assert json.loads(json.dumps(record)) == record
        for key in ("input", "generators", "ranks", "anchoring", "conjectural", "warnings"):
            assert key in record


class TestRecord:
    def test_ranks_and_warnings_come_from_the_generators(self):
        # an unknown grading leaves no rank vector, hence no summary extra
        rows = (_row(0, 1, "special"), _row(None, 2, "reducible", 1))
        gens = GradedGenerators(rows, ("from the complex",))
        record = _record({}, generators=gens, warnings=("from the handler",), extras={"b1": 0})
        assert (record["ranks"], record["anchoring"]) == (None, None)
        assert record["extras"] == {"b1": 0}
        assert record["warnings"] == ["from the complex", "from the handler"]
        rows = (_row(0, 1, "special"), _row(1, 1, "reducible", 1), _row(2, 1, "reducible", 1))
        record = _record({}, generators=GradedGenerators(rows), extras={"b1": 0})
        assert record["ranks"] == [1, 1, 1, 0]
        assert list(record["extras"].items()) == [
            ("b1", 0), ("total_rank", 3), ("euler_characteristic", 1)
        ]

    def test_ranks_can_be_wrapped_on_the_class(self, capsys, monkeypatch):
        # perfbench's tracer replaces GradedGenerators.ranks on the class and
        # reads LatticeCounts.k2 from each lattice_counts result
        calls = []
        original = GradedGenerators.ranks

        def traced(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(GradedGenerators, "ranks", traced)
        code, out, _ = run(capsys, "two-bridge", "-p", "5", "-q", "3", "--json")
        assert code == 0 and json.loads(out)["ranks"] == [1, 1, 2, 1]
        assert len(calls) == 1
        assert lens.lattice_counts(5, 2, 3, 2).k2 == 4

    def test_generators_are_the_entries(self):
        # the record prints the generator blocks exactly as the complex built them
        gens = two_bridge_generators(5, 3)
        record = _record({}, generators=gens)
        assert record["generators"] == list(gens.entries)


class TestGolden:
    @pytest.mark.parametrize("case", GOLDEN, ids=lambda case: case["name"])
    def test_json_matches_golden_record(self, capsys, case):
        code, out, _ = run(capsys, *case["argv"], "--json")
        assert code == 0
        assert out == json.dumps(case["record"], indent=2, sort_keys=True) + "\n"


class TestParserReuse:
    """The process's one parser carries nothing from one call to the next."""

    def test_replay_leaks_no_state(self, capsys):
        by_name = {case["name"]: case for case in GOLDEN}
        pinned = by_name["torus (3,4) via seifert route"]
        bare = by_name["torus (3,4) via seifert route unpinned"]
        assert pinned["argv"] == bare["argv"] + ["--irreducible-block", "2,0,0,2"]
        for case in GOLDEN + GOLDEN[::-1]:
            with pytest.raises(SystemExit) as err:
                main(["two-bridge", "-p", "5"])
            assert err.value.code == 2
            code, out, _ = run(capsys, *case["argv"])
            assert code == 0 and not out.startswith("{")
            code, out, _ = run(capsys, *case["argv"], "--json")
            assert code == 0
            assert out == json.dumps(case["record"], indent=2, sort_keys=True) + "\n"
        for case in (pinned, bare):
            code, out, _ = run(capsys, *case["argv"], "--json")
            assert code == 0
            assert out == json.dumps(case["record"], indent=2, sort_keys=True) + "\n"


# argv that argparse rejects or answers with help, each with its own exit code and text
USAGE_PROBES = [
    [],
    ["-h"],
    ["bogus"],
    ["two-bri"],
    ["--json", "two-bridge", "-p", "5", "-q", "3"],
    ["--", "two-bridge", "-p", "5", "-q", "3"],
    ["two-bridge", "-p", "5"],
    ["two-bridge", "-p", "5", "-q", "3", "extra"],
    ["two-bridge", "-p", "x", "-q", "3"],
    ["two-bridge", "-h"],
    ["two-bridge", "-p", "5", "-q", "3", "--bogus"],
    ["two-bridge", "--", "-p", "5", "-q", "3"],
    ["two-bridge", "-p", "5", "-q", "3", "--", "x"],
    ["two-bridge", "-p", "5", "-q", "3", "--json=1"],
    ["two-bridge", "-p", "5", "-q", "3", "--he"],
    ["brieskorn-knot", "2", "3"],
    ["brieskorn-knot", "2", "3", "5", "7"],
    ["brieskorn-knot", "2", "3", "x"],
    ["montesinos-knot", "--pairs", "2,1;3,1;5,1"],
    ["montesinos-knot", "--pairs", "2,-1;3,1;3,1", "--signature", "x"],
    ["torus", "3"],
    ["torus", "3", "5", "7", "--json"],
    ["montesinos-link"],
    ["montesinos-link", "--pairs", "2,1;3,-1;6,-1", "--lk", "x"],
    ["homology"],
    ["homology", "--alexander=1:1", "--pairs=2,1;3,1;5,1"],
    ["regress", "--json"],
    ["regress", "--filter"],
    ["regress", "--filter", "torus", "--verbose"],
    ["config"],
    ["config", "job.cfg", "extra"],
    # argparse drops a joined `--` value and would store an empty list
    ["two-bridge", "-p=--", "-q", "3"],
    ["montesinos-knot", "--pairs=2,-1;3,1;3,1", "--signature=--"],
    ["montesinos-link", "--pairs=2,1;3,-1;6,-1", "--lk=--"],
]
# argv that parse, abbreviated and repeated flags and joined values included
VALID_ARGV = [
    *SAMPLE_COMMANDS,
    *(case["argv"] + ["--json"] for case in GOLDEN),
    ["two-bridge", "-p", "5", "-q", "3", "--js"],
    ["two-bridge", "-p5", "-q3", "--json"],
    ["two-bridge", "-p=5", "-q=3", "--json", "--json"],
    ["two-bridge", "-q", "-3", "-p", "5"],
    ["montesinos-knot", "--pairs", "2,-1;3,1;3,1", "--sig=-6", "--irr", "2,0,0,2"],
    ["torus", "-3", "5"],
]


def usage_outcome(capsys, parse, argv):
    """Exit code, stdout and stderr of `parse(argv)`, which must exit."""
    with pytest.raises(SystemExit) as err:
        parse(argv)
    return (err.value.code, *capsys.readouterr())


class TestDispatch:
    """A subcommand's argv goes straight to its subparser; the full parser,
    the oracle of that route, still parses every argv the route declines."""

    @pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
    def test_same_namespace_as_full_parser(self, argv):
        expected = vars(cli.build_parser().parse_args(argv))
        assert vars(cli._parse(argv)) == expected

    @pytest.mark.parametrize("argv", USAGE_PROBES, ids=" ".join)
    def test_same_usage_outcome_as_full_parser(self, capsys, argv):
        expected = usage_outcome(capsys, cli.build_parser().parse_args, argv)
        assert expected[0] in (0, 2)
        assert usage_outcome(capsys, cli._parse, argv) == expected

    def test_family_argv_skips_full_parser(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, [(argparse.ArgumentParser, "parse_args")])
        for argv in SAMPLE_COMMANDS:
            assert run(capsys, *argv, "--json")[0] == 0
        assert calls == []

    def test_config_argv_skips_full_parser(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("command = torus\nq = 4\np = 3\nirreducible-block = 2,0,0,2\n")
        calls = count_calls(monkeypatch, [(argparse.ArgumentParser, "parse_args")])
        code, out, _ = run(capsys, "config", str(cfg), "--json")
        assert code == 0 and calls == []
        assert json.loads(out)["input"] == {
            "command": "torus", "p": 3, "q": 4, "irreducible_block": [2, 0, 0, 2]
        }

    def test_leftover_argument_falls_back(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, [(argparse.ArgumentParser, "parse_args")])
        with pytest.raises(SystemExit) as err:
            main(["two-bridge", "-p", "5", "-q", "3", "extra", "--json"])
        assert err.value.code == 2 and len(calls) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("\nfloerchains: error: unrecognized arguments: extra\n")


class TestRegress:
    def test_full_corpus_passes(self, capsys):
        code, out, _ = run(capsys, "regress")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("[PASS]") == len(GOLDEN)
        assert not any(line.startswith(" ") for line in out.splitlines())
        assert out.endswith("OK: 0 failing case(s)\n")

    def test_takes_no_options(self, capsys):
        # regress takes no options: --filter and --verbose are usage errors
        for option in (["--filter", "two-bridge"], ["--verbose"]):
            with pytest.raises(SystemExit) as err:
                main(["regress", *option])
            assert err.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.endswith(f"error: unrecognized arguments: {' '.join(option)}\n")

    def test_reports_a_changed_record(self, capsys, monkeypatch):
        case = copy.deepcopy(GOLDEN[0])
        case["record"]["ranks"] = [0, 0, 0, 0]
        monkeypatch.setattr(cli, "_golden_cases", lambda: [case])
        code, out, _ = run(capsys, "regress")
        assert code == 1
        assert f"[FAIL] {case['name']}" in out
        assert "    ranks: expected [0, 0, 0, 0], actual [1, 1, 2, 1]" in out
        assert "generators:" not in out
        assert out.endswith("FAILED: 1 failing case(s)\n")

    def test_fails_on_output_that_is_not_json(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_golden_cases", lambda: GOLDEN[:1])
        monkeypatch.setattr(cli, "_write_json", lambda value, out, newline: out.append("{"))
        code, out, _ = run(capsys, "regress")
        assert code == 1
        assert f"[FAIL] {GOLDEN[0]['name']}" in out
        assert "    --json output: JSONDecodeError" in out

    def test_fails_on_a_wrongly_printed_value(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_golden_cases", lambda: GOLDEN[:1])
        monkeypatch.setitem(cli._JSON_SCALARS, int, lambda value: repr(value + 1))
        code, out, _ = run(capsys, "regress")
        assert code == 1
        assert "    ranks: expected [1, 1, 2, 1], actual [2, 2, 3, 2]" in out

    def test_fails_on_a_layout_that_still_parses(self, capsys, monkeypatch):
        # one space too many in the generator rows' indent: the text parses
        # back to the same record, so only the byte comparison catches it
        monkeypatch.setattr(cli, "_golden_cases", lambda: GOLDEN[:1])
        flat_rows = cli._flat_rows
        monkeypatch.setattr(cli, "_flat_rows", lambda rows, newline: flat_rows(rows, newline + " "))
        code, out, _ = run(capsys, "regress")
        assert code == 1
        assert f"[FAIL] {GOLDEN[0]['name']}" in out
        assert "    --json layout: differs from json.dumps" in out
        assert "expected" not in out

    def test_passes_under_optimize(self):
        done = run_module("-O", "-m", "floerchains.cli", "regress", timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr


class TestWorkPerRecord:
    """Each record computes each invariant once."""

    def test_brieskorn_sweeps_once_per_central_sign(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, [(seifert, "_rotation_intervals")])
        assert run(capsys, "brieskorn-knot", "2", "3", "7", "--json")[0] == 0
        assert len(calls) == 2

    def test_brieskorn_sweep_walks_the_smallest_fibers(self, capsys, monkeypatch):
        # the count is symmetric in the fibers, so the fiber order must not
        # decide how many (ell_1, ell_2) pairs the sweep walks
        original = seifert._rotation_intervals
        swept = []

        def counted(*args):
            for item in original(*args):
                swept.append(item)
                yield item

        monkeypatch.setattr(seifert, "_rotation_intervals", counted)
        walked = []
        for argv in (["1009", "1013", "2"], ["2", "1009", "1013"]):
            swept.clear()
            code, out, _ = run(capsys, "brieskorn-knot", *argv, "--json")
            assert code == 0
            assert json.loads(out)["extras"]["casson"] == -63882
            walked.append(len(swept))
        assert walked[0] == walked[1] < 1013

    def test_link_sweeps_once_per_central_sign(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, [(seifert, "_rotation_intervals")])
        argv = ["montesinos-link", "--pairs", "2,1;5,-2;10,-1", "--lk", "4", "--json"]
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 2

    def test_link_sets_up_once(self, capsys, monkeypatch):
        # one reduction, which gives the one |H1|, and one parity rule, which
        # gives both the w2 twist and the sign character
        modules = (cli, complexes, covers, seifert)
        names = ("_reduced_cover", "seifert_h1_order", "_link_twist")
        calls = {
            name: count_calls(monkeypatch, [(m, name) for m in modules if hasattr(m, name)])
            for name in names
        }
        for pairs in ("2,1;5,-2;10,-1", "2,1;5,-2;10,-1;1,0"):
            for found in calls.values():
                found.clear()
            argv = ["montesinos-link", "--pairs", pairs, "--lk", "4", "--json"]
            assert run(capsys, *argv)[0] == 0
            counts = {name: len(found) for name, found in calls.items()}
            assert counts == {
                "_reduced_cover": 1,
                "seifert_h1_order": 1,
                "_link_twist": 1,
            }, pairs

    def test_knot_sets_up_once(self, capsys, monkeypatch):
        # one reduction, which also gives |H1| to reducible_characters.  The
        # record's h1_order extra computes |H1| a second time: handing it the
        # cover's value would need montesinos_knot_complex, a public entry
        # point, to take a reduced cover or to return |H1|, which is more API
        # than one O(n) product is worth
        modules = (cli, complexes, covers, seifert)
        names = ("_reduced_cover", "seifert_h1_order")
        calls = {
            name: count_calls(monkeypatch, [(m, name) for m in modules if hasattr(m, name)])
            for name in names
        }
        argv = ["montesinos-knot", "--pairs", "2,-1;3,1;3,1", "--signature", "-6", "--json"]
        assert run(capsys, *argv)[0] == 0
        counts = {name: len(found) for name, found in calls.items()}
        assert counts == {"_reduced_cover": 1, "seifert_h1_order": 2}

    def test_odd_torus_signature_once(self, capsys, monkeypatch):
        bindings = [(signatures, "torus_signature"), (complexes, "torus_signature")]
        calls = count_calls(monkeypatch, bindings)
        assert run(capsys, "torus", "3", "5", "--json")[0] == 0
        assert len(calls) == 1

    def test_two_bridge_inverts_once(self, capsys, monkeypatch):
        modules = (arith, cli, complexes, lens, seifert, signatures)
        inverses = count_calls(
            monkeypatch, [(m, "mod_inverse") for m in modules if hasattr(m, "mod_inverse")]
        )
        windows = count_calls(monkeypatch, [(lens, "lattice_counts")])
        batches = count_calls(
            monkeypatch, [(lens, "indices_plus_one"), (complexes, "indices_plus_one")]
        )
        assert run(capsys, "two-bridge", "-p", "1001", "-q", "376", "--json")[0] == 0
        assert len(inverses) <= 1
        # all 500 classes are indexed by one batch call, none by the per-class route
        assert len(windows) == 0
        assert len(batches) == 1

    def test_generator_rows_written_in_one_batch(self, capsys, monkeypatch):
        # the record, its eight fields, the three of input, the four ranks,
        # the one note and the two extras: one call per value, with the
        # generator rows one value; a call per row would add 1001 at p = 1001
        calls = count_calls(monkeypatch, [(cli, "_write_json")])
        counts = []
        for p, q in (("5", "3"), ("1001", "376")):
            calls.clear()
            assert run(capsys, "two-bridge", "-p", p, "-q", q, "--json")[0] == 0
            counts.append(len(calls))
        assert counts == [19, 19]

    def test_generator_rows_encode_only_their_mixed_columns(self, capsys, monkeypatch):
        # a record's row columns hold ints (grading, multiplicity), ints and
        # Nones (id; grading where it is unknown) or strs (origin), and each of
        # these goes into the row template without a json.dumps call
        calls = count_calls(monkeypatch, [(json, "dumps")])
        for argv in (
            ["two-bridge", "-p", "5", "-q", "3"],
            ["two-bridge", "-p", "1001", "-q", "376"],
            ["montesinos-knot", "--pairs", "2,-1;3,1;3,1", "--signature=-6"],
            ["torus", "5", "4"],
        ):
            calls.clear()
            code, out, _ = run(capsys, *argv, "--json")
            assert code == 0
            rows = json.loads(out)["generators"]
            assert None in [row["id"] for row in rows], argv
            unknown = argv[0] != "two-bridge"
            assert (None in [row["grading"] for row in rows]) == unknown, argv
            assert calls == [], argv

    def test_parser_built_once(self, capsys, monkeypatch):
        assert run(capsys, "two-bridge", "-p", "5", "-q", "3", "--json")[0] == 0
        calls = count_calls(monkeypatch, [(argparse.ArgumentParser, "__init__")])
        for p in range(3, 103, 2):
            assert run(capsys, "two-bridge", "-p", str(p), "-q", "1", "--json")[0] == 0
        assert len(calls) == 0


class TestConfigMode:
    def test_two_bridge_config(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("# figure-eight\ncommand = two-bridge\np = 5\nq = 3\n")
        code, out, _ = run(capsys, "config", str(cfg), "--json")
        record = json.loads(out)
        assert code == 0
        assert record["ranks"] == [1, 1, 2, 1]

    def test_link_config(self, tmp_path, capsys):
        cfg = tmp_path / "link.cfg"
        cfg.write_text("command = montesinos-link\npairs = 2,1;3,-1;6,-1\nlk = 4\n")
        code, out, _ = run(capsys, "config", str(cfg), "--json")
        record = json.loads(out)
        assert code == 0
        assert record["ranks"] == [0, 2, 0, 2]

    def test_config_value_with_leading_dash(self, tmp_path, capsys):
        cfg = tmp_path / "hom.cfg"
        cfg.write_text("command = homology\nalexander = -1:1,0:-1,1:1\n")
        code, out, _ = run(capsys, "config", str(cfg), "--json")
        record = json.loads(out)
        assert code == 0
        assert record["extras"] == {"b1": 0, "h1_order": 3}

    def test_config_positionals_in_any_order(self, tmp_path, capsys):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("command = brieskorn-knot\nr = 7\np = 2\nq = 3\n")
        code, out, _ = run(capsys, "config", str(cfg), "--json")
        record = json.loads(out)
        assert code == 0
        assert record["ranks"] == [3, 2, 2, 2]

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["config", str(tmp_path / "absent.cfg"), "--json"])
        assert err.value.code == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_missing_command_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "nocommand.cfg"
        cfg.write_text("p = 5\nq = 3\n")
        with pytest.raises(SystemExit) as err:
            main(["config", str(cfg), "--json"])
        assert err.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith("config file must set command=...")

    def test_non_utf8_file_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("command = two-bridge\np = 5\nq = 3\n# caf\u00e9\n".encode("latin-1"))
        with pytest.raises(SystemExit) as err:
            main(["config", str(cfg), "--json"])
        assert err.value.code == 2
        assert "cannot read config file" in capsys.readouterr().err


# every subcommand that builds a record; TestHandlers checks it against the parser
FAMILIES = (
    "two-bridge", "brieskorn-knot", "montesinos-knot", "torus", "montesinos-link", "homology"
)
MALFORMED = ("x", "", "1.5", "2,", ";", "1:2:3", "--", "0x1f", " ")


def fuzz_argv(rng, family):
    """One seeded argv of `family`, biased toward valid input.

    Values are mostly small and at most one reaches |v| = 200, so every
    record stays cheap; about one token in twelve is malformed, and a flag
    is sometimes left out or added.
    """
    large = rng.random() < 0.3

    def num(positive=False):
        nonlocal large
        if large and rng.random() < 0.3:
            large = False
            v = rng.randint(-200, 200)
        else:
            bound = rng.choice((3, 12, 40))
            v = rng.randint(-bound, bound)
        return abs(v) if positive and rng.random() < 0.9 else v

    def token(value):
        return rng.choice(MALFORMED) if rng.random() < 1 / 12 else str(value)

    def option(name, value):
        # the joined form keeps a value with a leading dash a value
        return [f"{name}={value}"] if rng.random() < 0.5 else [name, value]

    def pairs():
        count = rng.choice((1, 2, 3, 3, 3, 3, 4, 5))
        return token(";".join(f"{num(True) or 1},{num()}" for _ in range(count)))

    def sphere_pairs():
        # pairwise coprime fibers, with b solving |H1| = 1: a knot cover
        a1, a2, a3 = (rng.randint(1, 12) for _ in range(3))
        while math.gcd(a1, a2) * math.gcd(a1, a3) * math.gcd(a2, a3) != 1:
            a1, a2, a3 = (rng.randint(1, 12) for _ in range(3))
        h = rng.choice((-1, 1))
        b3 = h * pow(a1 * a2, -1, a3)
        t = (h - b3 * a1 * a2) // a3
        b1 = t * pow(a2, -1, a1)
        return token(f"{a1},{b1};{a2},{(t - b1 * a2) // a1};{a3},{b3}")

    def link_pairs():
        # two small fibers and a third that makes the Euler number vanish
        (a1, b1), (a2, b2) = ((rng.randint(2, 12), rng.randint(-12, 12)) for _ in range(2))
        return token(f"{a1},{b1};{a2},{b2};{a1 * a2},{-b1 * a2 - b2 * a1}")

    def alexander():
        count = rng.randint(1, 5)
        return token(",".join(f"{num()}:{num()}" for _ in range(count)))

    def block():
        return token(",".join(str(2 * num(True)) for _ in range(4)))

    argv = [family]
    if family == "two-bridge":
        argv += ["-p", token(num(True) | 1), "-q", token(num())]
    elif family in ("brieskorn-knot", "torus"):
        argv += [token(num(True)) for _ in range(3 if family == "brieskorn-knot" else 2)]
        if family == "torus" and rng.random() < 0.2:
            argv += option("--irreducible-block", block())
    elif family == "montesinos-knot":
        argv += option("--pairs", sphere_pairs() if rng.random() < 0.4 else pairs())
        argv += option("--signature", token(2 * num()))
        if rng.random() < 0.2:
            argv += option("--irreducible-block", block())
    elif family == "montesinos-link":
        argv += option("--pairs", link_pairs() if rng.random() < 0.6 else pairs())
        if rng.random() < 0.7:
            argv += option("--lk", token(4 * rng.randint(-4, 4)))
        if rng.random() < 0.2:
            argv += option("--alexander", alexander())
    else:
        source = ("--pairs", pairs()) if rng.random() < 0.5 else ("--alexander", alexander())
        argv += option(*source)
        if rng.random() < 0.3:
            argv += option("--lk", token(num()))
    if rng.random() < 0.03:
        del argv[rng.randrange(1, len(argv))]
    if rng.random() < 0.03:
        argv.insert(rng.randrange(1, len(argv) + 1), "--bogus")
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


class TestHandlers:
    """Each family's subparser carries the handler that builds its record."""

    def test_exactly_the_families_carry_a_handler(self):
        cli.build_parser()
        handlers = {name: sub.get_default("handler") for name, sub in cli._SUBPARSERS.items()}
        assert [name for name, handler in handlers.items() if handler] == list(FAMILIES)
        assert handlers.keys() - {*FAMILIES} == {"regress", "config"}
        assert handlers["regress"] is handlers["config"] is None
        assert {argv[0] for argv in SAMPLE_COMMANDS} == {*FAMILIES}

    @pytest.mark.parametrize("argv", SAMPLE_COMMANDS, ids=" ".join)
    def test_record_echoes_the_command(self, argv):
        # on the subparser route and on the full parser's
        for args in (cli._parse(argv), cli.build_parser().parse_args(argv)):
            code, record = cli._evaluate(args)
            assert code == 0 and record["input"]["command"] == argv[0]

    @pytest.mark.parametrize("argv", SAMPLE_COMMANDS, ids=" ".join)
    def test_input_echoes_every_parsed_argument(self, tmp_path, argv):
        # one rule for every family, on argv and on its config-file form: the
        # echo holds each dest the subparser defines, as parsed, apart from
        # handler and json; --pairs and --irreducible-block in parsed form
        cfg = tmp_path / "job.cfg"
        cfg.write_text(config_text(argv))
        records = []
        for args in (cli._parse(argv), cli._parse(["config", str(cfg)])):
            parsed = vars(args)
            dests = {action.dest for action in cli._SUBPARSERS[argv[0]]._actions}
            assert parsed.keys() - {"handler", "json"} == dests - {"help", "json"} | {"command"}
            code, record = cli._evaluate(args)
            assert code == 0
            assert record["input"].keys() == parsed.keys() - {"handler", "json"}
            for key, value in record["input"].items():
                text = parsed[key]
                if text is not None and key == "pairs":
                    text = [list(pair) for pair in parse_pairs(text).pairs]
                elif text is not None and key == "irreducible_block":
                    text = cli.parse_block(text)
                assert value == text, key
            records.append(record)
        assert records[0] == records[1]

    def test_torus_echo_tells_a_pin_apart(self):
        echoes = [
            cli._evaluate(cli._parse(["torus", "3", "4", *pin]))[1]["input"]
            for pin in ((), ("--irreducible-block", "2,0,0,2"))
        ]
        assert echoes == [
            {"command": "torus", "p": 3, "q": 4, "irreducible_block": None},
            {"command": "torus", "p": 3, "q": 4, "irreducible_block": [2, 0, 0, 2]},
        ]


def assert_rank_facts(record, argv):
    """A record with a rank vector carries its total and Euler number, the
    latter as ``"+-|chi|"`` under cyclic anchoring; a conjectural one says so."""
    ranks = record["ranks"]
    assert (CONJECTURAL in record["warnings"]) == record["conjectural"], argv
    if ranks is None:
        return
    chi = ranks[0] - ranks[1] + ranks[2] - ranks[3]
    extras = record["extras"]
    assert extras.get("total_rank") == sum(ranks), argv
    expected = {"absolute": chi, "cyclic": f"+-{abs(chi)}"}[record["anchoring"]]
    assert extras.get("euler_characteristic") == expected, argv


class TestFuzz:
    """Seeded argv over every family: each ends in exit 0, 1 or 2 with the
    documented output, and no exception escapes ``main``."""

    def test_every_argv_exits_cleanly(self, capsys):
        rng = random.Random(0)
        exits = {family: set() for family in FAMILIES}
        for family in FAMILIES * 250:
            argv = fuzz_argv(rng, family)
            try:
                code = main(argv)
            except SystemExit as err:
                code = err.code
            except Exception as err:  # every escape is a failure of this test
                pytest.fail(f"{argv}: {type(err).__name__}: {err}")
            out, err = capsys.readouterr()
            exits[family].add(code)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert out == "", argv
            elif "--json" in argv:
                record = json.loads(out)
                assert type(record) is dict and err == "", argv
                if code == 1:
                    assert record.keys() == {"error", "message"}, argv
                    assert all(type(value) is str for value in record.values()), argv
                else:
                    assert_rank_facts(record, argv)
            elif code == 1:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
            else:
                assert out and err == "", argv
        for family, codes in exits.items():
            assert {0, 1} <= codes, family
