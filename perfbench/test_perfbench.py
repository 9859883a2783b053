"""Tests for the benchmark's own logic: output checks, failure counting and
span self times.

Run from the repository root:  python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

CERTIFY_4, PNBOUND_5 = run.resolved("cli-exact", 42)[1], run.resolved("cli-exact", 42)[7]


def cli_output(argv: list[str]) -> tuple[int, str]:
    import conecert.cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = conecert.cli.main(argv)
    return code, captured.getvalue()


@pytest.fixture(scope="module")
def outputs() -> dict:
    return {"certify": cli_output(CERTIFY_4[1]), "pnbound": cli_output(PNBOUND_5[1])}


def tampered(stdout: str, edit) -> str:
    doc = json.loads(stdout)
    edit(doc)
    return json.dumps(doc)


def outcome(invocation, exit_code, stdout):
    spec, argv = invocation
    return (spec, argv, exit_code, stdout)


def failed(*outcomes) -> int:
    return run.count_failed(list(outcomes))


def test_resolved_fills_seed_and_json_format():
    spec, argv = run.resolved("selftest", 7)[0]
    assert argv == ["selftest", "--seed", "7", "--format", "json"]
    assert spec["check"] == "selftest"


def test_correct_outputs_pass(outputs):
    code4, out4 = outputs["certify"]
    code5, out5 = outputs["pnbound"]
    assert (code4, code5) == (0, 2)  # the p^2 comparison is expected to falsify
    assert failed(outcome(CERTIFY_4, code4, out4), outcome(PNBOUND_5, code5, out5)) == 0


def _set_verdict(doc):
    doc["verdict"] = "certified"


def _set_threshold(doc):
    doc["reports"][0]["payload"]["threshold"]["num"] = "18929"


def _shift_window(doc):
    enc = doc["reports"][0]["payload"]["theta_min_deg"]
    enc["lo"], enc["hi"] = {"num": "51653", "den": "1000"}, {"num": "516535", "den": "10000"}


def _set_sup(doc):
    doc["reports"][0]["payload"]["sup_float"] += 1e-6


def _set_comparison(doc):
    doc["reports"][1]["payload"]["comparison"] = "sup^2 < p^2"


def _drop_witness(doc):
    del doc["reports"][0]["payload"]["witness"]


@pytest.mark.parametrize(
    "which, edit",
    [
        ("pnbound", _set_verdict),
        ("certify", _set_threshold),
        ("certify", _shift_window),
        ("pnbound", _set_sup),
        ("pnbound", _set_comparison),
        ("pnbound", _drop_witness),
    ],
)
def test_tampered_answer_counts_as_failed(outputs, which, edit):
    invocation = CERTIFY_4 if which == "certify" else PNBOUND_5
    code, stdout = outputs[which]
    assert failed(outcome(invocation, code, tampered(stdout, edit))) == 1


def test_wrong_exit_code_or_garbage_counts_as_failed(outputs, capsys):
    code, stdout = outputs["pnbound"]
    assert failed(
        outcome(PNBOUND_5, 0, stdout),
        outcome(PNBOUND_5, code, "Traceback (most recent call last):"),
        outcome(PNBOUND_5, code, "[]"),
        outcome(PNBOUND_5, code, stdout),
    ) == 3
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and all(line.startswith("# FAILED pnbound") for line in printed)
    assert "exit code 0, expected 2" in printed[0]


def test_enclosure_check_follows_inward_rounding():
    def errors(lo, hi, side, tol="1/1000"):
        out: list[str] = []
        enc = {"lo": lo, "hi": hi}
        truth = float(checks.frac(lo) + checks.frac(hi)) / 2
        checks.check_enclosure(out, "w", enc, truth, checks.frac(tol), "51.654", 3, side)
        return out

    assert errors("51653/1000", "51654/1000", "min") == []
    assert errors("51653996/1000000", "51653997/1000000", "min", "1/1000000") == []
    assert errors("51654/1000", "51655/1000", "min")  # theta_min is rounded up
    assert errors("51654/1000", "51655/1000", "max") == []
    assert errors("51653/1000", "51655/1000", "min")  # too wide


def test_two_value_scan_matches_published_surd():
    assert checks.two_value_sup(3, 6 / 11) == pytest.approx(65 / 726 * 66 ** 0.5, abs=1e-12)


def test_self_time_subtracts_union_of_children():
    tree = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("cones.certify_dimension", 1.0, 4.0, 0, 0),
        Span("exact.AngleDeg.cos", 2.0, 3.0, 1, 0),
        Span("cones.other_helper", 3.0, 6.0, 0, 0),  # overlaps its sibling
        Span("report.ReportEnvelope.render", 8.0, 9.0, 0, 0),
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 1.0, 3.0, 1.0]
    assert spans.covered([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 6.0


def test_layer_labels_partition_the_root():
    tree = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("cones.certify_dimension", 1.0, 6.0, 0, 0),
        Span("exact.to_fraction", 1.0, 1.5, 1, 0),
        Span("exact.angle_range_from_threshold", 2.0, 5.0, 1, 0),
        Span("exact.acos_interval", 2.0, 3.0, 3, 0),
        Span("exact.AngleDeg.cos", 3.0, 4.0, 3, 0),
        Span("exact.cos_interval", 3.5, 4.0, 5, 0),  # called by AngleDeg.cos
        Span("report.ReportEnvelope.render", 7.0, 8.0, 0, 0),
    ]
    assert spans.labels(tree) == [
        "cli.self", "cones.other", "exact.other", "exact.window",
        "exact.window", "exact.trig", "exact.trig", "report.render",
    ]
    seconds, entries = spans.layer_summary(tree)
    assert seconds == {
        "cli.self": 4.0, "cones.other": 1.5, "exact.other": 0.5,
        "exact.window": 2.0, "exact.trig": 1.0, "report.render": 1.0,
    }
    assert sum(seconds.values()) == 10.0
    # One trig evaluation, although two trig functions ran.
    assert entries == {
        "cli.self": 1, "cones.other": 1, "exact.other": 1,
        "exact.window": 1, "exact.trig": 1, "report.render": 1,
    }


def test_install_wraps_every_binding_and_restores():
    import conecert.cli
    import conecert.exact

    original = conecert.exact.angle_range_from_threshold
    original_cos = conecert.exact.AngleDeg.cos
    tracer = spans.Tracer(trace_id=3)
    uninstall = spans.install(tracer)
    try:
        wrapped = conecert.exact.angle_range_from_threshold
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert conecert.cli.angle_range_from_threshold is wrapped
        assert conecert.angle_range_from_threshold is wrapped
        code, _ = cli_output(["certify", "--n", "4", "--format", "json"])
    finally:
        uninstall()
    assert code == 0
    assert conecert.cli.angle_range_from_threshold is original
    assert conecert.exact.AngleDeg.cos is original_cos
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "exact.angle_range_from_threshold", "report.ReportEnvelope.render"} <= names
    assert {s.trace_id for s in tracer.spans} == {3}
    root = tracer.spans[0]
    assert root.name == "cli.main" and root.parent is None
    seconds, _ = spans.layer_summary(tracer.spans)
    assert sum(seconds.values()) == pytest.approx(root.end - root.start, rel=1e-9)
    assert tracer.counters["report.bytes"] > 0


def test_layer_metrics_match_the_benchmark_declaration():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    plain = [{"main_s": 2.0, "import_s": 1.5, "exit": 0, "stdout": ""}]
    traced_runs = [{
        "main_s": 2.5, "spans": 3, "span_cost_s": 0.25,
        "layers": {"cli.self": 0.5, "exact.trig": 2.0},
        "entries": {"cli.self": 1, "exact.trig": 2},
        "counters": {"report.bytes": 10},
    }]
    metrics = run.layer_metrics(plain, traced_runs, cpu_s=4.0)
    assert {k: m["unit"] for k, m in metrics.items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]
    }
    assert metrics["exact.trig_calls"]["value"] == 2
    assert metrics["trace.overhead_share"]["value"] == pytest.approx(0.75 / 2.5)
    assert metrics["trace.accounted_share"]["value"] == pytest.approx(1.0)


def test_span_cost_is_small_and_positive():
    assert 0.0 <= spans.span_cost_s() < 1e-4


def test_host_clock_counts_rounds_and_stops_its_process():
    with run.HostClock() as clock:
        first = clock.read()
        time.sleep(0.3)
        assert clock.read() > first
    assert not clock._proc.is_alive()
