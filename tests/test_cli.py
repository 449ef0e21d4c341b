"""The command-line front end: verbs, exit codes, JSON output shapes."""

import json

import jsonschema

from polymat.cli import run
from polymat.ideal import parse_ideal

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

    def test_unknown_verb_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_budget_exceeded_exit_3(self, capsys):
        code = run(["betti", "-n", "3", "x1*x2, x1*x3, x2*x3", "--budget", "1"])
        assert code == 3
        assert "budget" in capsys.readouterr().err

    def test_large_prime_characteristic(self, capsys):
        assert run(["betti", "--char", "9223372036854775783", "-n", "2", "x1, x2"]) == 0

    def test_bad_characteristic_exit_2(self, capsys):
        for char in ("561", "3215031751", str(2**64 + 13)):
            assert run(["betti", "--char", char, "-n", "2", "x1, x2"]) == 2
            assert "characteristic" in capsys.readouterr().err

    def test_zero_ideal_predicate_exit_2(self, capsys):
        assert run(["check", "polymatroidal", "-n", "3", ""]) == 2
