"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert harness.tail_percentile(list(range(1, 1001))) == (99.0, 990, 10)
    assert harness.tail_percentile(list(range(100, 0, -1))) == (90.0, 90, 10)
    assert harness.tail_percentile(list(range(1, 21))) == (50.0, 10, 10)


def test_tail_falls_back_to_median_when_fewer_than_ten_beyond():
    assert harness.tail_percentile([5.0, 1.0, 4.0, 2.0, 3.0]) == (50.0, 3.0, 2)
    assert harness.tail_percentile(list(range(1, 20))) == (50.0, 10, 9)
    assert harness.tail_percentile([7.0]) == (50.0, 7.0, 0)


def _fake_clock():
    now = [0.0]
    return now, (lambda: now[0])


def test_self_time_of_nested_spans():
    now, clock = _fake_clock()
    tracer = tracing.Tracer(clock=clock)

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        traced_inner()
        now[0] += 3.0
        traced_inner()

    traced_inner = tracer.wrap("m.inner", inner)
    tracer.wrap("m.outer", outer)()
    assert tracer.stats["m.outer"][:3] == [1, 8.0, 4.0]
    assert tracer.stats["m.inner"][:3] == [2, 4.0, 4.0]


def test_iterator_work_is_charged_to_the_function_that_returned_it():
    now, clock = _fake_clock()
    tracer = tracing.Tracer(clock=clock)

    def produce():
        for k in range(3):
            now[0] += 1.0
            yield k

    def consume():
        total = 0
        for k in traced_produce():
            now[0] += 0.5
            total += k
        return total

    traced_produce = tracer.wrap("m.produce", produce)
    assert tracer.wrap("m.consume", consume)() == 3
    assert tracer.stats["m.produce"] == [1, 3.0, 3.0, 3]
    assert tracer.stats["m.consume"][:3] == [1, 4.5, 1.5]


def test_wrappers_removed_after_traced_calls():
    lib = run.load_library()
    original = lib.lab.colon
    tracer = tracing.Tracer()
    names = tracer.install()
    try:
        assert "ideal.colon" in names and "cli.run" in names
        assert lib.lab.colon is not original and tracing.leftover_wrappers()
        lib.lab.verify_equivalences(lib.ideal.parse_ideal("x1*x2, x1*x3, x2*x3", 3))
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    assert lib.lab.colon is original is lib.ideal.colon
    assert tracer.stats["ideal.colon"][0] > 0


def _last_lines(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def test_traced_run_restores_every_wrapper(capsys):
    code = run.main(["--workload", "veronese", "--seed", "2", "--seconds", "0.3", "--trace", "1"])
    meta, result = _last_lines(capsys)
    assert code == 0 and result["correct"]
    assert meta["wrappers_left"] == [] and tracing.leftover_wrappers() == []
    assert result["metrics"]["quotients.extend_lq_veronese.calls"]["value"] > 0


def test_wrong_answer_makes_the_command_fail(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "expected_appended", lambda *args: set())
    code = run.main(["--workload", "veronese", "--seed", "3", "--seconds", "0.3"])
    meta, result = _last_lines(capsys)
    assert code != 0
    assert result["correct"] is False and 0 < result["failed"] < result["attempted"]
    assert result["metrics"]["success_frac"]["value"] < 1.0 and meta["errors"]
