"""Self-test of the benchmark: a tiny run of every workload, and the gate failing.

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._import_program()
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_definition_keeps_the_contract():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert 1 <= spec["run_seconds"] <= 60


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_answers_correctly(name, traced):
    result = run.run_workload(name, seed=3, seconds=1, traced=traced, scale="tiny", rounds=1)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] >= len(result["queries"])
    want = run.PER_LAYER if traced else run.END_TO_END
    assert set(result["metrics"]) == set(want)


def _first_aperiodic():
    workdir = run.HERE / "work" / "selftest"
    wl = workloads.build("kernels", 3, "tiny", workdir, run.ROOT)
    from spans import NullTracer

    q = next(q for q in wl.queries if q.qid.startswith("aperiodic/"))
    return q, q.run(NullTracer())


def test_shifted_witness_counts_as_failed():
    q, raw = _first_aperiodic()
    honest = run.Verdicts({})
    honest.judge(q, raw, None)
    assert honest.failed == 0

    answer = q.canon(raw)
    shifted = dict(answer, D=[d + 1 for d in answer["D"]])
    q.canon = lambda _raw: shifted
    verdicts = run.Verdicts({})
    verdicts.judge(q, raw, None)
    assert verdicts.failed == 1 and q.qid in verdicts.problems


def test_reference_digest_mismatch_counts_as_failed():
    q, raw = _first_aperiodic()
    verdicts = run.Verdicts({q.qid: "0" * 16})
    verdicts.judge(q, raw, None)
    assert verdicts.failed == 1 and "reference" in verdicts.problems[q.qid]


def test_raising_query_counts_as_failed():
    q, _ = _first_aperiodic()
    verdicts = run.Verdicts({})
    verdicts.judge(q, None, "raised ValueError()")
    assert (verdicts.attempted, verdicts.failed) == (1, 1)
