"""The benchmark measures the program; these tests check the benchmark."""

import json
import re

import pytest

from benchmarks.e2e import report, schema, workloads
from benchmarks.e2e.cli import main
from benchmarks.e2e.harness import Recorder, RunPlan, measure
from benchmarks.e2e.layers import Tracer, measure_layers
from benchmarks.e2e.workloads import WORKLOADS

SMOKE = dict(scale=workloads.SMOKE_SCALE, seconds=0.3, setups=1, min_main=2,
             min_cold=1, min_write=1)


# ---- inputs are a pure function of the seed ------------------------------- #
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_between_seeds(name):
    workload = WORKLOADS[name]

    def inputs(seed):
        return (workloads.documents(workload, seed, 0.002),
                workloads.ops(workload, seed, 0.002),
                workloads.arrivals(seed, 0.002, 90.0, 2.0),
                [workloads.txn_plan(seed, 0.002, j) for j in range(3)])

    assert inputs(5) == inputs(5)
    assert inputs(5)[0] != inputs(6)[0]
    assert inputs(5)[2] != inputs(6)[2]


def test_adhoc_pass_has_200_distinct_texts():
    texts = [text for _, text in workloads.adhoc_queries(3, 0.001)]
    assert len(texts) == len(set(texts)) == 200


def test_arrivals_offer_a_fixed_count_inside_the_window():
    requests = workloads.arrivals(9, 0.02, 60.0, 4.0)
    assert len(requests) == 240
    dues = [r.due_s for r in requests]
    assert dues == sorted(dues) and 0 < dues[0] and dues[-1] < 4.0
    shares = {kind: sum(r.label.startswith(kind) for r in requests) / 240
              for kind in ("n", "q01:p")}
    assert 0.01 < shares["n"] < 0.12 and 0.1 < shares["q01:p"] < 0.3


# ---- BENCHMARK.json keeps to the contract --------------------------------- #
def test_declaration_is_within_the_contract():
    spec = schema.declaration()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(schema.NAME.match(name) for name in names)
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
               for m in spec["end_to_end"])
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    setup = schema.declared(0)["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    runs = 4 + 22 * len(spec["workloads"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert runs * (spec["run_seconds"] + 8) < 3420


def test_validate_names_what_is_wrong():
    good = {"trace": 0, "attempted": 3, "failed": 0,
            "metrics": schema.stamp({name: {"value": 1.0}
                                     for name in schema.declared(0)}, 0)}
    assert schema.validate(good) == []
    bad = json.loads(json.dumps(good))
    bad["metrics"]["made_up"] = {"value": 1.0, "unit": "ms"}
    bad["metrics"]["pass_ms"]["unit"] = "s"
    del bad["metrics"]["setup_s"]
    problems = "\n".join(schema.validate(bad))
    for fragment in ("made_up is not declared", "pass_ms: unit 's'",
                     "setup_s is declared but missing"):
        assert fragment in problems
    absent = schema.stamp({}, 1)
    assert all(entry["value"] is None and entry["reason"]
               for entry in absent.values())


# ---- measuring ------------------------------------------------------------ #
@pytest.mark.parametrize("name", ["xmark_joins", "doc_lifecycle"])
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    rec = Recorder()
    metrics, _ = measure(WORKLOADS[name], RunPlan(seed=3, **SMOKE), rec,
                         tmp_path)
    assert rec.failed == 0, rec.failures
    assert set(metrics) == set(schema.declared(0))
    assert all(entry["value"] > 0 for entry in metrics.values())
    assert not any(tmp_path.iterdir()) or \
        [p.name for p in tmp_path.iterdir()] == ["store"]


def test_a_wrong_answer_is_counted_not_hidden(tmp_path):
    rec = Recorder({"reopen": "0" * 64})      # golden digests that match nothing
    measure(WORKLOADS["xmark_joins"], RunPlan(seed=3, **SMOKE), rec, tmp_path)
    assert rec.failed > 0 and rec.failed <= rec.attempted
    assert any("no golden digest" in line or "differs" in line
               for line in rec.failures)


def test_exact_counts_repeat_across_two_traced_runs(tmp_path):
    """With one client, count-type layer metrics are a function of the
    inputs alone; so is the stored-bytes ratio of the untraced run."""
    workload, plan = WORKLOADS["xmark_joins"], RunPlan(seed=3, **SMOKE)
    runs = []
    for attempt in ("a", "b"):
        work = tmp_path / attempt
        work.mkdir()
        metrics, _ = measure_layers(workload, plan, Recorder(), work, work)
        runs.append(metrics)
        assert (work / "spans-xmark_joins.jsonl").stat().st_size > 0
    for name in report.EXACT_COUNTS:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
        assert runs[0][name]["value"] > 0, name
    ratios = []
    for attempt in ("c", "d"):
        work = tmp_path / attempt
        work.mkdir()
        metrics, _ = measure(workload, plan, Recorder(), work)
        ratios.append(metrics["stored_bytes_per_input_byte"]["value"])
    assert ratios[0] == ratios[1]


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    spans = {i: s for i, s in enumerate(tracer.spans)}
    own = tracer.self_ms()
    inner = sum(s[2] - s[1] for s in spans.values() if s[0] == "inner") / 1e6
    total = (spans[0][2] - spans[0][1]) / 1e6
    assert own["inner"] == pytest.approx(inner)
    assert own["op"] == pytest.approx(total - inner)
    assert [s[3] for s in spans.values()] == [-1, 0, 0]
    assert len({s[4] for s in spans.values()}) == 1


# ---- --compare ------------------------------------------------------------ #
def _runs(workload, values, failed=0):
    return {"runs": [{"workload": workload, "trace": 0, "attempted": 10,
                      "failed": failed,
                      "metrics": {"pass_ms": {"value": v, "unit": "ms"}}}
                     for v in values]}


@pytest.mark.parametrize("steps, word, code", [
    (0.0, "unchanged", 0), (-1.5, "improved", 0), (1.5, "regressed", 1)])
def test_compare_verdicts(tmp_path, capsys, steps, word, code):
    """B moved by ``steps`` × the metric's bound."""
    factor = 1 + steps * schema.declared(0)["pass_ms"]["bound"]
    (tmp_path / "a.json").write_text(json.dumps(_runs("w", [100, 101, 102])))
    (tmp_path / "b.json").write_text(
        json.dumps(_runs("w", [v * factor for v in (100, 101, 102)])))
    assert main(["--compare", str(tmp_path / "a.json"),
                 str(tmp_path / "b.json")]) == code
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("w ") and "pass_ms" in line)
    assert row.endswith(word)


def test_compare_reports_noise_as_unresolved_and_more_failures_as_regressed(
        tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps(_runs("w", [50, 100, 150])))
    (tmp_path / "b.json").write_text(
        json.dumps(_runs("w", [100, 100, 100], failed=1)))
    assert main(["--compare", str(tmp_path / "a.json"),
                 str(tmp_path / "b.json")]) == 1
    out = capsys.readouterr().out
    assert "unresolved" in out and "B fails more operations" in out
