"""Wrong answers and raising operations are counted as failures, and the
run goes on."""

import json
from pathlib import Path
from types import SimpleNamespace

import run
import workloads

BENCH = Path(__file__).resolve().parents[1]


def test_census_class_count_off_by_one(tmp_path):
    cells = workloads.census_f2_cells()[:4]
    workload = workloads.CensusWorkload("census_f2", 2, cells, workloads.cell_key)
    ops = workload.setup(0, tmp_path)
    assert run.measure(workload, ops).failures == []
    cell = ops[2].cells[0]
    wrong = cell._replace(reference=dict(cell.reference, classes=cell.reference["classes"] + 1))
    ops[2] = ops[2]._replace(cells=(wrong,))
    measured = run.measure(workload, ops)
    assert len(measured.latencies) == len(ops)
    assert [op for op, _ in measured.failures] == [ops[2]]
    assert "classes" in measured.failures[0][1].message


def test_classify_answer_with_one_tag_changed(tmp_path):
    workload = workloads.make("classify_fp")
    workload.objects_per_pass = 3
    ops = workload.setup(5, tmp_path)
    assert run.measure(workload, ops).failures == []
    op = ops[1]
    other = next(t for t in workloads.pool("S", op.field_name) if t != op.tags[0])
    ops[1] = op._replace(tags=(other,) + op.tags[1:])
    measured = run.measure(workload, ops)
    assert len(measured.latencies) == 3
    assert [(o, f.known) for o, f in measured.failures] == [(ops[1], False)]


def test_raising_operation_is_counted_and_the_run_goes_on(tmp_path):
    workload = workloads.make("classify_q")
    workload.objects_per_pass = 1
    workload.setup(3, tmp_path)
    from foursub.canon import canon_rep, parse_tag
    from foursub.fields import QQ

    ops = [
        workloads.ClassifyOp(k, "Q", (tag,), canon_rep(parse_tag(tag, QQ), QQ), None)
        for k, tag in enumerate(["K:I(1)", "K:0(1,p=t+1,s=1)", "C:II(0)"])
    ]
    workload.candidates = []  # the family tag can no longer be named
    measured = run.measure(workload, ops)
    assert len(measured.latencies) == 3
    assert [o.index for o, _ in measured.failures] == [1]
    assert measured.failures[0][1].message.startswith("raised UnclassifiedSummand")


def test_only_the_recorded_q_defect_counts_as_known(tmp_path):
    workload = workloads.make("classify_q")
    workload.objects_per_pass = 1
    workload.setup(0, tmp_path)
    op = workloads.ClassifyOp(0, "Q", ("C:I2(1)", "C:II(0)"), None, None)
    answers = {
        "swap": [("C:I(1)", 1), ("C:II(0)", 1)],
        "other": [("C:I(2)", 1), ("C:II(0)", 1)],
        "right": [("C:I2(1)", 1), ("C:II(0)", 1)],
    }
    verdicts = {}
    for name, answer in answers.items():
        workload.canon = SimpleNamespace(
            classify=lambda obj, candidates, seed, answer=answer: answer, format_tag=str
        )
        verdicts[name] = workload.run(op)
    assert verdicts["right"] is None
    assert verdicts["swap"].known is True
    assert verdicts["other"].known is False


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    from layers import PER_LAYER

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(1120) == 99.0
    assert run.tail_percentile(397) == 95.0
    assert run.tail_percentile(42) == 75.0
    assert run.tail_percentile(10) == 100.0
