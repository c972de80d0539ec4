"""The benchmark gate table (``benchmarks/gates.py``) and its one checker.

Every gate the CI ``kernels``, ``fleet`` and ``service`` jobs enforce is a
row of the table, evaluated by ``tools/check_bench.py``.  These tests drive
the checker with copies of the committed ``BENCH_*.json`` baselines pushed
just past each floor and each regression tolerance, so a row that stops
firing (or a floor that moves) fails here.  No system is built.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_bench = _load("check_bench")
GATES = check_bench.GATES
BASELINES = {name: json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
             for name in GATES}
FLOOR_ROWS = [(name, row) for name, table in GATES.items()
              for row in table["floors"]]
REGRESSED = [(name, path) for name, table in GATES.items()
             for pattern in table["regressed"]
             for path in check_bench._expand(BASELINES[name], pattern)]


def _set(document: dict, path: str, value) -> None:
    *parents, leaf = path.split(".")
    for key in parents:
        document = document[key]
    document[leaf] = value


def _past(document: dict, row: dict):
    """A value for ``row["path"]`` just on the failing side of the row."""
    if "min" in row:
        return row["min"] - 0.01
    if "max" in row:
        current = check_bench.lookup(document, row["path"])
        return ["boom"] if isinstance(current, list) else row["max"] + 0.01
    return check_bench.lookup(document, row["equals"]) - 1


def test_table_declares_every_floor_and_tolerance():
    floors = {row["gate"]: row.get("min", row.get("max"))
              for _, row in FLOOR_ROWS}
    assert floors == {
        "CACHED_NOT_SLOWER": 1.0, "DECODE_SPEEDUP_TARGET": 3.0,
        "FUSED_QKV_TARGET": 1.0, "BATCHED_DECODE_TARGET": 2.0,
        "PLAN_REUSE_TARGET": 2.0, "INJECT_SPEEDUP_TARGET": 2.0,
        "FLEET_STEPPING_TARGET": 3.0, "ROUND_TRIP_TARGET": 500.0,
        "ROUND_TRIP_P95_MS_LIMIT": 50.0, "NO_TRANSPORT_ERRORS": 0,
        "ALL_TASKS_DRAINED": None}
    assert {name: table["tolerance"] for name, table in GATES.items()} == \
        {"kernels": 0.20, "fleet": 0.20, "service": 0.30}
    assert len([p for name, p in REGRESSED if name == "kernels"]) == 10
    assert [p for name, p in REGRESSED if name == "fleet"] == \
        ["by_fleet.16.speedup", "by_fleet.4.speedup"]


@pytest.mark.parametrize("name", sorted(GATES))
def test_committed_baselines_pass(name):
    baseline = BASELINES[name]
    assert check_bench.check(name, baseline, baseline) == []
    assert check_bench.main([str(REPO_ROOT / f"BENCH_{name}.json")]) == 0


@pytest.mark.parametrize("name,row", FLOOR_ROWS,
                         ids=[row["gate"] for _, row in FLOOR_ROWS])
def test_each_floor_fires_on_either_document(name, row):
    broken = copy.deepcopy(BASELINES[name])
    _set(broken, row["path"], _past(broken, row))
    against_baseline = check_bench.check(name, broken, BASELINES[name])
    assert any(row["gate"] in e and e.startswith("committed baseline")
               for e in against_baseline), against_baseline
    against_fresh = check_bench.check(name, BASELINES[name], broken)
    assert any(row["gate"] in e and e.startswith("fresh run")
               for e in against_fresh), against_fresh


@pytest.mark.parametrize("name,path", REGRESSED,
                         ids=[path for _, path in REGRESSED])
def test_each_regressed_metric_fires_past_its_tolerance(name, path):
    tolerance = GATES[name]["tolerance"]
    reference = check_bench.lookup(BASELINES[name], path)
    fresh = copy.deepcopy(BASELINES[name])
    _set(fresh, path, (1 - tolerance) * 0.99 * reference)
    errors = check_bench.check_regressions(name, BASELINES[name], fresh)
    assert len(errors) == 1 and errors[0].startswith(f"{path} regressed")
    _set(fresh, path, (1 - tolerance) * 1.01 * reference)
    assert check_bench.check_regressions(name, BASELINES[name], fresh) == []


@pytest.mark.parametrize("name,section", [
    ("kernels", "injection"), ("kernels", "batched_decode"),
    ("fleet", "by_fleet"), ("service", "service")])
def test_missing_section_fails_in_either_document(name, section):
    stripped = copy.deepcopy(BASELINES[name])
    del stripped[section]
    for baseline, fresh, label in ((stripped, BASELINES[name], "committed"),
                                   (BASELINES[name], stripped, "fresh")):
        errors = check_bench.check(name, baseline, fresh)
        assert any(section in e and label in e for e in errors), errors


def test_service_transport_error_or_undrained_task_fails():
    for path, value, gate in (("service.errors", ["reset by peer"],
                               "NO_TRANSPORT_ERRORS"),
                              ("service.round_trips", 2047,
                               "ALL_TASKS_DRAINED")):
        fresh = copy.deepcopy(BASELINES["service"])
        _set(fresh, path, value)
        errors = check_bench.check("service", BASELINES["service"], fresh)
        assert any(gate in e for e in errors), errors


def test_full_only_row_is_skipped_on_smoke_documents():
    document = copy.deepcopy(BASELINES["kernels"])
    _set(document, "fig16_decode.cached_vs_legacy_speedup", 2.0)
    assert any("DECODE_SPEEDUP_TARGET" in e for e in
               check_bench.check_floors("kernels", document, "run"))
    document["mode"] = "smoke"
    assert check_bench.check_floors("kernels", document, "run") == []
    # The committed baseline is the full-run reference: always held to it.
    assert check_bench.check_floors("kernels", document, "run", full=True)


def test_fleet_injected_arm_is_informational():
    fresh = copy.deepcopy(BASELINES["fleet"])
    fresh["injected"]["speedup"] = 0.01
    assert check_bench.check("fleet", BASELINES["fleet"], fresh) == []


def test_cli_finds_the_baseline_by_file_name(tmp_path, capsys):
    fresh = copy.deepcopy(BASELINES["fleet"])
    fresh["by_fleet"]["4"]["speedup"] = 0.5
    path = tmp_path / "BENCH_fleet.json"
    path.write_text(json.dumps(fresh))
    assert check_bench.main([str(path)]) == 1
    assert "by_fleet.4.speedup regressed" in capsys.readouterr().out
    (tmp_path / "fleet.json").write_text("{}")
    assert check_bench.main([str(tmp_path / "fleet.json")]) == 2


def test_docs_quote_every_phrased_floor(tmp_path, monkeypatch):
    check_docs = _load("check_docs")
    quoted = {row["gate"] for _, row in FLOOR_ROWS if "quote" in row}
    assert len(quoted) == 7
    errors: list[str] = []
    check_docs.check_bench_floors(errors)
    assert errors == []

    # A drifted quote and a dropped quote must both fail.
    docs = tmp_path / "docs"
    docs.mkdir()
    (tmp_path / "README.md").write_text(
        (REPO_ROOT / "README.md").read_text())
    for source in (REPO_ROOT / "docs").glob("*.md"):
        text = source.read_text().replace("2x plan-reuse", "3x plan-reuse")
        (docs / source.name).write_text(
            text.replace("3x decode-speedup", "three-fold decode-speedup"))
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = []
    check_docs.check_bench_floors(errors)
    assert any("'3x plan-reuse'" in e and "PLAN_REUSE_TARGET" in e
               for e in errors), errors
    assert any("quotes the DECODE_SPEEDUP_TARGET floor" in e
               for e in errors), errors
