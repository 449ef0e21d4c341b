"""The command-line front end: verbs, exit codes, JSON output shapes."""

import argparse
import contextlib
import hashlib
import io
import json
import re
import shlex
import time
from pathlib import Path

import jsonschema
from hypothesis import given, settings, strategies as st

from polymat import cli, resolution
from polymat.cli import run
from polymat.ideal import parse_ideal
from polymat.lab import IdealSpace, scan_conjecture

WITNESS_SCHEMA = {
    "type": ["object", "null"],
    "properties": {
        "u": {"type": "string"},
        "v": {"type": "string"},
        "i": {"type": "integer"},
        "verdict": {"type": "string"},
        "j": {"type": ["integer", "null"]},
    },
    "required": ["u", "v", "i", "verdict"],
}

SCHEMAS = {
    "check": {
        "type": "object",
        "properties": {
            "command": {"const": "check"},
            "exit_code": {"type": "integer"},
            "property": {"type": "string"},
            "result": {"type": "boolean"},
            "witness": WITNESS_SCHEMA,
        },
        "required": ["command", "exit_code", "property", "result"],
    },
    "ideal-result": {
        "type": "object",
        "properties": {
            "command": {"type": "string"},
            "exit_code": {"type": "integer"},
            "ideal": {"type": "string"},
        },
        "required": ["command", "exit_code", "ideal"],
    },
    "betti": {
        "type": "object",
        "properties": {
            "betti": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "i": {"type": "integer"},
                        "j": {"type": "integer"},
                        "rank": {"type": "integer", "minimum": 0},
                    },
                    "required": ["i", "j", "rank"],
                },
            },
            "regularity": {"type": "integer"},
        },
        "required": ["betti", "regularity"],
    },
    "ass": {
        "type": "object",
        "properties": {
            "ass": {"type": "array"},
            "minimal": {"type": "array"},
            "height": {"type": "integer"},
            "has_embedded": {"type": "boolean"},
        },
        "required": ["ass", "minimal", "height", "has_embedded"],
    },
    "certificate": {
        "type": "object",
        "properties": {
            "certificate": {
                "type": ["object", "null"],
                "properties": {
                    "base": {"type": "string"},
                    "order": {"type": "array", "items": {"type": "string"}},
                    "steps": {"type": "array"},
                },
            }
        },
        "required": ["certificate"],
    },
    "report": {
        "type": "object",
        "properties": {
            "version": {"type": "string"},
            "config": {"type": "object"},
            "items": {"type": "array"},
            "summary": {"type": "object"},
        },
        "required": ["version", "config", "items", "summary"],
    },
    "equiv": {
        "type": "object",
        "properties": {
            "conditions": {
                "type": "object",
                "properties": {k: {"type": "boolean"} for k in "abcde"},
                "required": list("abcde"),
            },
            "violation": {"type": "boolean"},
            "convention_sensitive": {"type": "boolean"},
        },
        "required": ["conditions", "violation"],
    },
}


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


class TestPredicates:
    def test_false_predicate_exit_one_with_witness(self, capsys):
        code = run(["check", "polymatroidal", "-n", "3", "x1^2, x1*x2, x3^2, x2*x3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "false" in out and "witness" in out

    def test_true_predicate_exit_zero(self, capsys):
        code = run(["check", "matroidal", "-n", "3", "x1*x2, x1*x3, x2*x3"])
        assert code == 0

    def test_all_check_properties_run(self, capsys):
        ideal = "x1*x2, x1*x3, x2*x3"
        for prop in (
            "polymatroidal",
            "matroidal",
            "strong-exchange",
            "nonpure-exchange",
            "cw-polymatroidal",
            "cw-veronese",
            "single-degree",
            "linear-resolution",
            "linear-relations",
            "cw-linear",
        ):
            code, data = run_json(capsys, ["check", prop, "-n", "3", ideal])
            jsonschema.validate(data, SCHEMAS["check"])
            assert code in (0, 1)

    def test_witness_in_json(self, capsys):
        code, data = run_json(
            capsys, ["check", "polymatroidal", "-n", "3", "x1*x3^2, x1^2*x3, x1*x2*x3, x2^2*x3"]
        )
        assert code == 1
        jsonschema.validate(data, SCHEMAS["check"])
        assert data["witness"]["u"] == "x1*x3^2" and data["witness"]["i"] == 1


    def test_strong_exchange_text_witness_names_j(self, capsys):
        argv = ["check", "strong-exchange", "-n", "3", "x1*x2, x3^2"]
        assert run(argv) == 1
        assert "witness: u=x3^2 v=x1*x2 i=3 j=1" in capsys.readouterr().out
        code, data = run_json(capsys, argv)
        assert data["witness"] == {
            "u": "x3^2", "v": "x1*x2", "i": 3, "verdict": "violated", "j": 1
        }

    def test_componentwise_predicate_answers_across_a_wide_gap(self, capsys):
        # only the generator degrees 1 and 60 are tested
        t0 = time.perf_counter()
        code, data = run_json(capsys, ["check", "cw-polymatroidal", "-n", "3", "x1, x2^60"])
        assert time.perf_counter() - t0 < 2.0
        assert code == 1 and data["result"] is False and data["failing_degree"] == 60

    def test_linear_checks_read_certificates(self, capsys, monkeypatch):
        # m^2 has linear quotients in decreasing revlex: no tree walk
        def no_tree(*args, **kwargs):
            raise AssertionError("Mayer-Vietoris tree on a certified ideal")

        m2 = "x1^2, x1*x2, x1*x3, x2^2, x2*x3, x3^2"
        with monkeypatch.context() as patched:
            patched.setattr(resolution, "_mayer_vietoris_tree", no_tree)
            for prop in ("linear-resolution", "linear-relations", "cw-linear"):
                assert run(["check", prop, "-n", "3", m2]) == 0, prop
        # without a certificate the tree decides: linear relations only
        cubics = "x1^3, x1^2*x2, x1^2*x3, x2^3, x1*x2^2, x2^2*x3, x3^3, x1*x3^2, x2*x3^2"
        assert run(["check", "linear-relations", "-n", "3", cubics]) == 0
        assert run(["check", "linear-resolution", "-n", "3", cubics]) == 1
        assert run(["check", "cw-linear", "-n", "3", cubics]) == 1

    def test_componentwise_linear_across_a_wide_gap(self, capsys):
        # I_<20> has 211 generators and linear quotients in decreasing revlex
        t0 = time.perf_counter()
        code, data = run_json(capsys, ["check", "cw-linear", "-n", "3", "x1, x2^20"])
        assert time.perf_counter() - t0 < 0.2
        assert code == 0 and data["result"] is True

    def test_zero_unit_messages_name_the_operation(self, capsys):
        for argv, noun in (
            (["ass", "-n", "2", "1"], "decomposition"),
            (["check", "polymatroidal", "-n", "2", "1"], "predicate"),
            (["betti", "-n", "2", "1"], "Betti numbers"),
        ):
            assert run(argv) == 2
            assert capsys.readouterr().err.strip() == (
                f"error: {noun} undefined for the unit ideal"
            )


class TestOperations:
    def test_localize_ones(self, capsys):
        code = run(["localize", "-n", "6", "--ones", "4", "x1*x2*x3, x2*x3*x4, x3*x5*x6"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "x2*x3, x3*x5*x6"

    def test_localize_prime_complement(self, capsys):
        code = run(
            ["localize", "-n", "6", "--prime", "1,2,3,5,6", "x1*x2*x3, x2*x3*x4, x3*x5*x6"]
        )
        out = capsys.readouterr().out.strip()
        assert code == 0 and out == "x2*x3, x3*x5*x6"

    def test_saturate_by_a_large_power_is_one_colon(self, capsys):
        t0 = time.perf_counter()
        code = run(["saturate", "-n", "2", "x1^1000000*x2, x2^3", "x1"])
        assert time.perf_counter() - t0 < 0.1
        assert code == 0 and capsys.readouterr().out.strip() == "x2"

    def test_localize_both_flags_error(self, capsys):
        code = run(["localize", "-n", "3", "--ones", "1", "--prime", "2", "x1*x2"])
        assert code == 2

    def test_round_trip_output(self, capsys):
        for argv in (
            ["colon", "-n", "3", "x1^2, x1*x2, x3^2, x2*x3", "x2"],
            ["saturate", "-n", "3", "x1*x2^2, x3", "x2"],
            ["combine", "product", "-n", "4", "x1, x2", "x3, x4"],
            ["power", "-n", "2", "-k", "2", "x1, x2"],
            ["component", "-n", "3", "-j", "3", "x1*x2, x1*x3^2, x2*x3^2"],
        ):
            code = run(argv)
            out = capsys.readouterr().out.strip()
            assert code == 0
            n = int(argv[argv.index("-n") + 1])
            reparsed = parse_ideal(out, n)
            assert str(reparsed) == out

    def test_colon_json(self, capsys):
        code, data = run_json(capsys, ["colon", "-n", "3", "x1^2, x1*x2, x3^2, x2*x3", "x2"])
        jsonschema.validate(data, SCHEMAS["ideal-result"])
        assert data["ideal"] == "x3, x1"

    def test_betti_json(self, capsys):
        code, data = run_json(capsys, ["betti", "-n", "3", "x1, x2, x3"])
        jsonschema.validate(data, SCHEMAS["betti"])
        assert {tuple((e["i"], e["j"])): e["rank"] for e in data["betti"]} == {
            (0, 1): 3,
            (1, 2): 3,
            (2, 3): 1,
        }

    def test_ass_json(self, capsys):
        code, data = run_json(capsys, ["ass", "-n", "2", "x1^2, x1*x2"])
        jsonschema.validate(data, SCHEMAS["ass"])
        assert data["has_embedded"] is True

    def test_irrdecomp(self, capsys):
        code, data = run_json(capsys, ["irrdecomp", "-n", "2", "x1*x2"])
        assert data["components"] == [{"1": 1}, {"2": 1}]


class TestLq:
    def test_check_given_order(self, capsys):
        code, data = run_json(capsys, ["lq", "check", "-n", "3", "x1*x2, x1*x3^2, x2*x3^2"])
        jsonschema.validate(data, SCHEMAS["certificate"])
        assert code == 0 and data["certificate"]["steps"] == [[], [2], [1]]

    def test_check_failing_order(self, capsys):
        code, data = run_json(capsys, ["lq", "check", "-n", "4", "x1*x2, x3*x4"])
        assert code == 1 and data["certificate"] is None and data["failed_at"] == 1

    def test_find(self, capsys):
        code, data = run_json(capsys, ["lq", "find", "-n", "4", "x1*x2, x3*x4"])
        assert code == 1
        code, data = run_json(capsys, ["lq", "find", "-n", "3", "x1*x2, x1*x3, x2*x3"])
        assert code == 0

    def test_revlex_conventions(self, capsys):
        code, data = run_json(capsys, ["lq", "revlex", "-n", "2", "x1^2, x1*x2, x2^2"])
        assert code == 0
        code, data = run_json(
            capsys, ["lq", "revlex", "--increasing", "-n", "2", "x1^2, x1*x2, x2^2"]
        )
        assert code == 0

    def test_extend_veronese(self, capsys):
        code, data = run_json(
            capsys,
            ["extend-veronese", "--from-params", "2:1,2", "--to-params", "3:3,3"],
        )
        jsonschema.validate(data, SCHEMAS["certificate"])
        assert code == 0
        assert data["certificate"]["order"] == ["x1^3"]


class TestHarnessVerbs:
    def test_equiv(self, capsys):
        code, data = run_json(capsys, ["equiv", "-n", "3", "x1*x2, x1*x3, x2*x3"])
        jsonschema.validate(data, SCHEMAS["equiv"])
        assert code == 0 and not data["violation"]

    def test_scan(self, capsys):
        code, data = run_json(
            capsys,
            ["scan", "--nvars", "2", "--maxdeg", "2", "--maxgens", "3"],
        )
        jsonschema.validate(data, SCHEMAS["report"])
        assert code == 0
        assert data["summary"]["reverse_candidates"] == 0

    def test_suite(self, capsys):
        code, data = run_json(capsys, ["suite"])
        jsonschema.validate(data, SCHEMAS["report"])
        assert code == 0
        assert data["summary"]["all_passed"] is True


class TestErrors:
    def test_parse_error_exit_2(self, capsys):
        assert run(["check", "polymatroidal", "-n", "3", "x1 + x2"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_variable_out_of_range_exit_2(self, capsys):
        assert run(["colon", "-n", "2", "x3", "x1"]) == 2

    def test_veronese_params_need_colon(self, capsys):
        code = run(["extend-veronese", "--from-params", "2;1,2", "--to-params", "3:3,3"])
        assert code == 2
        assert "bad Veronese parameters '2;1,2'" in capsys.readouterr().err

    def test_unknown_verb_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_budget_exceeded_exit_3(self, capsys):
        code = run(["betti", "-n", "3", "x1*x2, x1*x3, x2*x3", "--budget", "1"])
        assert code == 3
        assert "budget" in capsys.readouterr().err

    def test_budget_zero_is_honoured(self, capsys):
        for argv in (
            ["betti", "-n", "3", "x1*x2, x2*x3, x1*x3"],
            ["lq", "find", "-n", "3", "x1*x2, x1*x3, x2*x3"],
            ["scan", "--nvars", "2", "--maxdeg", "2", "--maxgens", "3"],
        ):
            assert run(argv + ["--budget", "0"]) == 3, argv
            assert "budget" in capsys.readouterr().err

    def test_certificate_path_counts_generators_against_the_budget(self, capsys):
        # m^2 in four variables: 10 generators, 76 lattice points; its
        # certificate reads the table after charging only the generators
        m2 = "x1^2, x1*x2, x1*x3, x1*x4, x2^2, x2*x3, x2*x4, x3^2, x3*x4, x4^2"
        for argv in (["betti", "-n", "4", m2], ["check", "linear-resolution", "-n", "4", m2]):
            assert run(argv + ["--budget", "20"]) == 0, argv
            assert run(argv + ["--budget", "9"]) == 3, argv
            assert "budget" in capsys.readouterr().err

    def test_localize_prime_out_of_range_exit_2(self, capsys):
        for prime in ("9", "0,1"):
            assert run(["localize", "-n", "3", "--prime", prime, "x1*x2"]) == 2
            assert "out of range 1..3" in capsys.readouterr().err

    def test_large_prime_characteristic(self, capsys):
        assert run(["betti", "--char", "9223372036854775783", "-n", "2", "x1, x2"]) == 0

    def test_unread_option_is_a_usage_error(self, capsys):
        for argv in (
            ["colon", "--char", "3", "-n", "2", "x1", "x1"],
            ["ass", "--budget", "5", "-n", "2", "x1^2, x1*x2"],
            ["power", "--seed", "1", "-n", "2", "-k", "2", "x1, x2"],
            ["irrdecomp", "--char", "2", "-n", "2", "x1*x2"],
        ):
            assert run(argv) == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_option_unread_by_the_mode_is_a_usage_error(self, capsys):
        scan = ["scan", "--nvars", "2", "--maxdeg", "2", "--maxgens", "2"]
        cases = [
            (["check", prop, "--char", "0", "-n", "2", "x1"], ["--char"])
            for prop in ("polymatroidal", "matroidal", "strong-exchange", "nonpure-exchange",
                         "cw-polymatroidal", "cw-veronese", "single-degree")
        ] + [
            (["check", "single-degree", "--budget", "9", "-n", "2", "x1"], ["--budget"]),
            (["lq", "check", "--budget", "9", "-n", "2", "x1"], ["--budget"]),
            (["lq", "revlex", "--budget", "9", "-n", "2", "x1"], ["--budget"]),
            (["lq", "check", "--increasing", "-n", "2", "x1"], ["--increasing"]),
            (["lq", "find", "--increasing", "-n", "2", "x1"], ["--increasing"]),
            (["lq", "revlex", "--base", "", "-n", "2", "x1"], ["--base"]),
            (scan + ["--seed", "0"], ["--seed"]),
            (scan + ["--mode", "sampled"], ["--mode"]),
        ]
        for argv, options in cases:
            assert run(argv) == 2, argv
            err = capsys.readouterr().err
            for option in options:
                assert option in err, argv
        # the modes that read them still do
        assert run(["check", "linear-resolution", "--char", "2", "--budget", "50", "-n", "2", "x1"]) == 0
        assert run(["lq", "find", "--base", "x1", "--budget", "5", "-n", "2", "x2"]) == 0
        assert run(scan + ["--samples", "3", "--seed", "4"]) == 0
        # a sampled scan reads --budget: 3 samples of up to 2 generators pass 0
        assert run(scan + ["--samples", "3", "--budget", "0"]) == 3

    def test_sampled_scan_is_selected_by_samples(self, capsys):
        code, data = run_json(
            capsys, ["scan", "--nvars", "3", "--maxdeg", "2", "--maxgens", "3", "--samples", "5", "--seed", "3"]
        )
        assert code == 0
        expected = scan_conjecture(IdealSpace(3, 2, 3, mode="sampled", samples=5, seed=3)).stable_json()
        del data["summary"]["elapsed_seconds"]
        assert data == {"command": "scan", "exit_code": 0, **expected}

    def test_component_and_power_over_budget_exit_3(self, capsys):
        for argv in (
            ["component", "-n", "3", "-j", "100000", "x1"],
            ["power", "-n", "4", "-k", "1000", "x1, x2, x3, x4"],
        ):
            t0 = time.perf_counter()
            assert run(argv) == 3, argv
            assert time.perf_counter() - t0 < 1.0, argv
            assert "budget" in capsys.readouterr().err

    def test_componentwise_veronese_walk_over_budget_exit_3(self, capsys):
        t0 = time.perf_counter()
        assert run(["check", "cw-veronese", "-n", "3", "x1, x2, x3^400"]) == 3
        assert time.perf_counter() - t0 < 10.0
        assert "componentwise Veronese walk would enumerate" in capsys.readouterr().err

    def test_divisor_walk_over_budget_exit_3(self, capsys):
        # 1001^2 = 1,002,001 divisors of the lcm, counted before any is built
        for verb in ("equiv", "ass"):
            t0 = time.perf_counter()
            assert run([verb, "-n", "2", "x1^1000*x2^1000"]) == 3, verb
            assert time.perf_counter() - t0 < 1.0, verb
            assert "colons would enumerate 1002001" in capsys.readouterr().err

    def test_veronese_enumeration_is_budgeted(self, capsys):
        # detection compares at most |G(I)| + 1 capped exponent vectors,
        # not all C(105, 5) degree-100 monomials
        t0 = time.perf_counter()
        assert run(["check", "cw-veronese", "-n", "6", ", ".join(f"x{i}^100" for i in range(1, 7))]) == 1
        assert time.perf_counter() - t0 < 2.0
        assert "failing degree: 100" in capsys.readouterr().out
        # I_(300; 300, ..., 300) has C(304, 4) generators
        t0 = time.perf_counter()
        argv = ["extend-veronese", "--from-params", "300:300,300,300,300",
                "--to-params", "301:301,301,301,301"]
        assert run(argv) == 3
        assert time.perf_counter() - t0 < 2.0
        assert "veronese would enumerate more than 200000 monomials" in capsys.readouterr().err

    def test_exhaustive_scan_space_is_counted_before_it_is_built(self, capsys):
        # C(32, 12) - 1 = 225,792,839 monomials of degree 1..20 in 12 variables
        t0 = time.perf_counter()
        assert run(["scan", "--nvars", "12", "--maxdeg", "20", "--maxgens", "1"]) == 3
        assert time.perf_counter() - t0 < 2.0
        assert "implies at least 225792839 subsets" in capsys.readouterr().err
        # a pool of one monomial has one nonempty subset, however large maxgens
        t0 = time.perf_counter()
        assert run(["scan", "--nvars", "1", "--maxdeg", "1", "--maxgens", "1000000000"]) == 0
        assert time.perf_counter() - t0 < 2.0
        assert "scanned 1 ideals" in capsys.readouterr().out

    def test_sampled_scan_draws_are_counted_before_they_are_drawn(self, capsys):
        # 3 samples of up to 10^8 generators each, against the default 5,000,000
        t0 = time.perf_counter()
        argv = ["scan", "--nvars", "2", "--maxdeg", "2", "--maxgens", "100000000", "--samples", "3"]
        assert run(argv) == 3
        assert time.perf_counter() - t0 < 2.0
        assert "implies up to 300000000 generators" in capsys.readouterr().err

    def test_sampled_scan_reads_the_budget(self, capsys):
        # 10 samples of up to 3 generators draw at most 30 monomials
        argv = ["scan", "--nvars", "2", "--maxdeg", "2", "--maxgens", "3", "--samples", "10"]
        assert run(argv + ["--budget", "29"]) == 3
        assert "implies up to 30 generators, over budget 29" in capsys.readouterr().err
        assert run(argv + ["--budget", "30"]) == 0

    def test_decomposition_over_budget_exit_3(self, capsys):
        # the 13-edge matching has 2^13 components; its ninth step holds
        # 512 of them, whose 512 * 511 pairs pass the budget
        matching = ", ".join(f"x{2 * i + 1}*x{2 * i + 2}" for i in range(13))
        for verb in ("irrdecomp", "ass"):
            t0 = time.perf_counter()
            assert run([verb, "-n", "26", matching]) == 3, verb
            assert time.perf_counter() - t0 < 2.0, verb
            assert "261632 > 200000 component pairs" in capsys.readouterr().err

    def test_parser_is_built_once(self, monkeypatch, capsys):
        argv = ["lq", "revlex", "-n", "2", "x1^2, x1*x2, x2^2"]
        run(argv)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(20):
            assert run(argv) == 0
        assert built == []

    def test_equiv_unit_ideal_exit_2(self, capsys):
        assert run(["equiv", "-n", "2", "1"]) == 2
        assert "equivalence check undefined for the unit ideal" in capsys.readouterr().err

    def test_bad_characteristic_exit_2(self, capsys):
        for char in ("561", "3215031751", str(2**64 + 13)):
            assert run(["betti", "--char", char, "-n", "2", "x1, x2"]) == 2
            assert "characteristic" in capsys.readouterr().err

    def test_zero_ideal_predicate_exit_2(self, capsys):
        assert run(["check", "polymatroidal", "-n", "3", ""]) == 2


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_examples_run(capsys):
    """Every ``polymat ...`` line of the README's CLI block parses and
    exits 0 (true / success) or 1 (predicate false)."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("polymat ")]
    assert lines
    for line in lines:
        assert run(shlex.split(line, comments=True)[1:]) in (0, 1), line
        capsys.readouterr()


QUERY_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "query_reference.json"


def test_query_reference_transcript(capsys):
    """Every recorded single-ideal query except ``equiv`` (the slowest, which
    the benchmark replays) prints the recorded output byte for byte."""
    for key, expected in json.loads(QUERY_REFERENCE.read_text()).items():
        argv = json.loads(key)
        if argv[0] == "equiv":
            continue
        code = run(argv)
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert {"exit": code, "sha256": digest} == expected, argv


def parser_leaves(parser, path=()):
    """(leaf command, its parser) for every leaf of the argparse tree."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(path), parser
        return
    for name, child in subparsers[0].choices.items():
        yield from parser_leaves(child, path + (name,))


def test_readme_option_table_matches_the_parser():
    """Each row of the README's option table names exactly the leaf
    commands that declare the option, and every leaf takes --json."""
    leaves = dict(parser_leaves(cli._build_parser()))
    declared: dict[str, set[str]] = {}
    for leaf, parser in leaves.items():
        for action in parser._actions:
            for option in action.option_strings:
                declared.setdefault(option, set()).add(leaf)
    assert declared["--json"] == set(leaves)
    table = README.read_text().split("| option | read by | meaning |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    assert rows
    for option, read_by in rows:
        option = option.strip().strip("`")
        assert set(re.findall(r"`([^`]+)`", read_by)) == declared[option], option


# --- fuzzing ``run`` over every verb and the options it takes --------------

IDEAL_GARBAGE = ("x1 +", "x4", "y1", "x1^-1", "x1**2", ",", "x0")


@st.composite
def monomial_text(draw, n, mindeg=0):
    exps = [0] * n
    for _ in range(draw(st.integers(mindeg, 3))):
        exps[draw(st.integers(0, n - 1))] += 1
    factors = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exps) if e]
    return "*".join(factors) or "1"


@st.composite
def ideal_text(draw, n):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(IDEAL_GARBAGE + ("", "1")))
    return ", ".join(draw(st.lists(monomial_text(n, 1), min_size=1, max_size=4)))


@st.composite
def veronese_params_pair(draw):
    """Source and target parameters, mostly a degree apart with caps that
    may rise by one, sometimes malformed."""
    d = draw(st.integers(0, 3))
    caps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    raised = [c + draw(st.integers(0, 1)) for c in caps]
    target = f"{d + 1}:{','.join(map(str, raised))}"
    if draw(st.integers(0, 4)) == 0:
        target = draw(st.sampled_from(("2;1,2", "x:1", "2:", "3:3,3")))
    return f"{d}:{','.join(map(str, caps))}", target


CHARS = st.sampled_from(("0", "2", "3", "4", "-1"))
BUDGETS = st.integers(0, 50).map(str)
PROPERTIES = (
    "polymatroidal", "matroidal", "strong-exchange", "nonpure-exchange",
    "cw-polymatroidal", "cw-veronese", "single-degree", "linear-resolution",
    "linear-relations", "cw-linear",
)


def verb_arguments(n):
    """verb -> (strategies of its positional arguments, {option it takes:
    strategy of the value, None for a flag}), for ideals in n variables."""
    ideal = ideal_text(n)
    return {
        "check": (
            [st.sampled_from(PROPERTIES), ideal],
            {"--char": CHARS, "--budget": BUDGETS},
        ),
        "colon": ([ideal, monomial_text(n)], {}),
        "saturate": ([ideal, monomial_text(n)], {}),
        "localize": (
            [ideal],
            {"--ones": st.sampled_from(("1", "1,2", "", "3", "4")),
             "--prime": st.sampled_from(("1", "2,3", "", "0", "4"))},
        ),
        "combine": ([st.sampled_from(("sum", "product", "intersect")), ideal, ideal], {}),
        "power": ([st.integers(-1, 3).map(lambda k: f"-k{k}"), ideal], {}),
        "component": ([st.integers(-1, 6).map(lambda j: f"-j{j}"), ideal], {}),
        "betti": ([ideal], {"--char": CHARS, "--budget": BUDGETS}),
        "ass": ([ideal], {}),
        "irrdecomp": ([ideal], {}),
        "equiv": ([ideal], {"--char": CHARS}),
        "lq": (
            [st.sampled_from(("check", "find", "revlex")), ideal],
            {"--budget": BUDGETS, "--base": ideal, "--increasing": None},
        ),
    }


@st.composite
def cli_argv(draw):
    verb = draw(st.sampled_from((
        "check", "colon", "saturate", "localize", "combine", "power", "component",
        "betti", "ass", "irrdecomp", "equiv", "lq", "extend-veronese", "scan", "suite",
    )))
    argv = [verb]
    if verb == "extend-veronese":
        source, target = draw(veronese_params_pair())
        argv += ["--from-params", source, "--to-params", target]
    elif verb == "scan":
        for flag, hi in (("--nvars", 3), ("--maxdeg", 3), ("--maxgens", 4)):
            argv += [flag, str(draw(st.integers(1, hi)))]
        optional = {
            "--samples": st.integers(0, 5).map(str),
            "--seed": st.integers(0, 3).map(str),
            "--char": CHARS,
            "--budget": BUDGETS,
        }
        for option in sorted(optional):
            if draw(st.booleans()):
                argv += [option, draw(optional[option])]
    elif verb == "suite":
        if draw(st.booleans()):
            argv += ["--char", draw(CHARS)]
    else:
        n = draw(st.integers(1, 3))
        positional, optional = verb_arguments(n)[verb]
        argv += [draw(s) for s in positional]
        argv += ["-n", str(draw(st.sampled_from((n, n, 0, n + 1))))]
        for option in sorted(optional):
            if draw(st.booleans()):
                argv.append(option)
                if optional[option] is not None:
                    argv.append(draw(optional[option]))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=200, deadline=None)
@given(cli_argv())
def test_fuzz_run_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in range(5), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
