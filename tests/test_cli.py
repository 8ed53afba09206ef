import concurrent.futures
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from seqmeter import parallel, verify
from seqmeter.bitseq import BitSequence, save
from seqmeter.cli import COMMANDS, main
from test_generators import _gold_prefix_with_breaking_bit

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run(argv, capsys):
    """Exit code plus parsed stdout, tolerating SystemExit from usage errors."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def ms3(tmp_path, capsys):
    path = tmp_path / "ms3.txt"
    code, _, _ = run(["gen", "msequence", "--ell", "3", "-o", str(path)], capsys)
    assert code == 0
    return str(path)


def test_gen_writes_period_header(ms3):
    text = Path(ms3).read_text()
    assert text.startswith("period=7\n")
    assert text.strip().endswith("10010111001011")


def test_gen_stdout_roundtrip(capsys):
    code, out, _ = run(["gen", "msequence", "--ell", "3"], capsys)
    assert code == 0
    assert "period=7" in out
    assert out.replace("period=7", "").replace("\n", "") == "10010111001011"


def test_gen_msequence_seed_without_taps(capsys):
    # the seed applies to the default taps, 0x3 at ell = 4
    default = run(["gen", "msequence", "--ell", "4", "--seed", "3"], capsys)
    assert default[0] == 0
    assert default == run(["gen", "msequence", "--ell", "4", "--taps", "3", "--seed", "3"], capsys)
    assert default != run(["gen", "msequence", "--ell", "4"], capsys)


@pytest.mark.parametrize("argv,message", [
    (["--taps", "13"], "taps must fit in 4 bits, got 0x13"),
    (["--seed", "10"], "seed must fit in 4 bits, got 0x10"),
    (["--taps", ""], "--taps must be hexadecimal, got ''"),
    (["--seed", ""], "--seed must be hexadecimal, got ''"),
], ids=["taps", "seed", "empty-taps", "empty-seed"])
def test_gen_msequence_refuses_wide_masks(argv, message, capsys):
    assert run(["gen", "msequence", "--ell", "4", *argv], capsys) == (2, "", f"seqmeter: {message}\n")


def test_lc_json(ms3, capsys):
    code, out, err = run(["lc", ms3], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 3
    assert doc["n"] == 14
    assert set(doc["manifest"]) >= {"argv", "version", "budget", "jobs", "seed"}
    assert "linear complexity" in err


def test_manifest_records_the_parsed_argv(ms3, capsys, monkeypatch):
    # an in-process call records the words main parsed, whatever sys.argv holds
    monkeypatch.setattr(sys, "argv", ["seqmeter", "gen", "gold", "--ell", "5"])
    code, out, _ = run(["--quiet", "lc", ms3], capsys)
    assert code == 0
    assert json.loads(out)["manifest"]["argv"] == ["--quiet", "lc", ms3]


def test_stdout_matches_the_streaming_encoder(ms3, tmp_path, capsys):
    # one json.dumps call prints what json.dump wrote chunk by chunk
    rand = tmp_path / "rand.txt"
    save(BitSequence.from_int(random.Random(5).getrandbits(2000), 2000), rand)  # L ~ 1000
    for argv in (["lc", str(rand)], ["bounds", "table1"], ["corr", ms3, "--k", "2"]):
        code, out, _ = run(argv + ["--quiet"], capsys)
        assert code == 0
        streamed = io.StringIO()
        json.dump(json.loads(out), streamed, sort_keys=True, default=str)
        assert out == streamed.getvalue() + "\n", argv


def test_lc_profile(ms3, capsys):
    code, out, _ = run(["lc", ms3, "--profile"], capsys)
    doc = json.loads(out)
    assert doc["profile"][-1] == doc["value"] == 3
    assert all(a <= b for a, b in zip(doc["profile"], doc["profile"][1:]))


def test_moc(ms3, capsys):
    code, out, _ = run(["moc", ms3, "--n", "7"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == max(1, json.loads(out)["value"])


def test_moc_json_ignores_the_period_header(tmp_path, capsys):
    # the declared period only shortens the pass: the same bits with and
    # without their period= line print the same JSON
    path = tmp_path / "ms5.txt"
    assert run(["gen", "msequence", "--ell", "5", "--periods", "6", "-o", str(path)], capsys)[0] == 0
    text = path.read_text()
    assert text.startswith("period=31\n")
    outputs = []
    for content in (text, text.split("\n", 1)[1]):
        path.write_text(content)
        outputs.append([run(argv + [str(path), "--quiet"], capsys)
                        for argv in (["moc", "--profile"], ["bounds", "verify", "thm4"])])
    assert outputs[0] == outputs[1]
    assert [code for code, _, _ in outputs[0]] == [0, 0]
    assert json.loads(outputs[0][1][1])["fired"]


def test_zero_prefix_length(ms3, capsys):
    for cmd in ("lc", "moc"):
        code, out, _ = run([cmd, ms3, "--n", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["n"], doc["value"]) == (0, 0)
    assert run(["moc", ms3, "--n", "15"], capsys)[0] == 2


def test_kerror(ms3, capsys):
    code, out, _ = run(["kerror", ms3, "--k", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 1
    assert doc["value"] <= 3


def test_kerror_priced_by_budget(tmp_path, capsys, monkeypatch):
    # one flip at N = 64 costs 64 * 65 = 4160 BM bit-steps
    path = tmp_path / "ms6.txt"
    assert run(["gen", "msequence", "--ell", "6", "-o", str(path)], capsys)[0] == 0
    code, out, _ = run(["kerror", str(path), "--k", "1", "--n", "64"], capsys)
    assert code == 0
    assert json.loads(out)["value"] <= 6
    assert run(["kerror", str(path), "--k", "1", "--n", "64", "--budget", "4159"], capsys)[:2] == (3, "")
    monkeypatch.setenv("SEQMETER_BUDGET", "4159")
    code, out, err = run(["kerror", str(path), "--k", "1", "--n", "64"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("seqmeter: search needs ~4160 BM bit-steps")
    monkeypatch.setenv("SEQMETER_BUDGET", "4160")
    assert run(["kerror", str(path), "--k", "1", "--n", "64"], capsys)[0] == 0


def test_corr_aperiodic(ms3, capsys):
    code, out, _ = run(["corr", ms3, "--k", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 2 and doc["periodic"] is False
    assert doc["value"] >= 1


def test_corr_periodic(ms3, capsys):
    code, out, _ = run(["corr", ms3, "--k", "3", "--periodic"], capsys)
    doc = json.loads(out)
    assert doc["value"] == 7
    assert doc["D"] == [0, 1, 3]
    assert doc["classification"] == "full-peak"


def test_corr_periodic_answers_pinned(tmp_path, capsys):
    # the scan visits only the shift sets that open with their smallest gap, the
    # price still counts all C(T-1, k-1) of them
    ms11, gold7 = str(tmp_path / "ms11.txt"), str(tmp_path / "gold7.txt")
    assert run(["gen", "msequence", "--ell", "11", "-o", ms11], capsys)[0] == 0
    assert run(["gen", "gold", "--ell", "7", "-o", gold7], capsys)[0] == 0
    code, out, err = run(["corr", ms11, "--k", "3", "--periodic"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("seqmeter: search needs ~4282395645 summand evaluations")
    code, out, _ = run(["corr", ms11, "--k", "3", "--periodic", "--budget", "10000000000"], capsys)
    doc = json.loads(out)
    assert (code, doc["value"], doc["D"], doc["classification"]) == (0, 2047, [0, 1, 1029], "full-peak")
    code, out, _ = run(["corr", gold7, "--k", "4", "--periodic"], capsys)
    doc = json.loads(out)
    del doc["manifest"]
    assert (code, doc) == (0, {"D": [0, 1, 2, 15], "U": 127, "classification": "none", "k": 4,
                               "n": 127, "periodic": True, "value": 17})


def test_corr_periodic_rejects_prefix_length(ms3, capsys):
    code, out, err = run(["corr", ms3, "--k", "3", "--periodic", "--n", "5"], capsys)
    assert (code, out) == (2, "")
    assert "--n" in err and "--periodic" in err


def test_peaks(ms3, capsys):
    code, out, _ = run(["peaks", ms3], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["shifts"] == [0, 1, 3]
    assert doc["theta"] == 7


def test_periodic_commands_refuse_a_short_file(ms3, tmp_path, capsys):
    # 101 under period=7 is not the block 1010000: the missing bits are unknown
    short, block = tmp_path / "short.txt", tmp_path / "block.txt"
    short.write_text("period=7\n101\n")
    block.write_text("period=7\n1001011\n")  # exactly one period of ms3
    for argv in (lambda f: ["peaks", f], lambda f: ["bounds", "verify", "thm1", f],
                 lambda f: ["corr", f, "--k", "2", "--periodic"]):
        code, out, err = run(argv(str(short)), capsys)
        assert (code, out) == (2, "")
        assert err.startswith("seqmeter: ") and err.endswith("3 of 7 bits stored\n")
        answers = []
        for path in (block, ms3):
            code, out, _ = run(argv(str(path)), capsys)
            doc = json.loads(out)
            del doc["manifest"]
            answers.append((code, doc))
        assert answers[0] == answers[1] and answers[0][0] == 0


def test_peaks_needs_period(tmp_path, capsys):
    # every periodic command exits 2 with the library's one period check
    raw, short = tmp_path / "raw.txt", tmp_path / "short.txt"
    raw.write_text("0101\n")
    short.write_text("period=7\n0101\n")
    for argv in (["peaks"], ["bounds", "verify", "thm1"], ["corr", "--k", "2", "--periodic"]):
        assert run([*argv, str(raw)], capsys) == (
            2, "", "seqmeter: sequence needs a declared period\n"), argv
        assert run([*argv, str(short)], capsys) == (
            2, "", "seqmeter: sequence needs a full period: 4 of 7 bits stored\n"), argv


def test_full_rank_span_peaks_at_every_shift(tmp_path, capsys):
    # period 7 with all 7 rotations independent: the dual code is {0}, but
    # all seven shifts fold to the block's odd weight, the constant ones
    path = tmp_path / "full7.txt"
    save(BitSequence([1, 0, 0, 0, 0, 0, 0] * 2, period=7), path)
    code, out, _ = run(["peaks", str(path)], capsys)
    doc = json.loads(out)
    assert (code, doc["found"], doc["dimension"], doc["tmax"]) == (0, True, 7, None)
    assert (doc["k"], doc["shifts"], doc["theta"]) == (7, list(range(7)), 7)
    code, out, err = run(["bounds", "verify", "thm1", str(path)], capsys)
    doc = json.loads(out)
    assert (code, doc["fired"], doc["dimension"]) == (0, False, 7)
    assert "holds" not in doc and "tmax" not in doc
    assert "full-rank" in err and "no full peak" not in err
    code, out, _ = run(["peaks", str(path), "--tmax", "3"], capsys)
    assert code == 0 and json.loads(out)["found"] is False


@pytest.mark.parametrize("argv,k", [
    (["gen", "hall", "--t", "7"], 7),
    (["gen", "hall", "--t", "31"], 3),
    (None, 1),
], ids=["hall7", "hall31", "ones5"])
def test_peaks_agrees_with_periodic_scan(argv, k, tmp_path, capsys):
    # the first order at which corr --periodic reads a full peak, and its
    # witness, are the peak's order and shifts
    path = tmp_path / "seq.txt"
    if argv is None:
        path.write_text("period=5\n1111111111\n")
    else:
        assert run([*argv, "-o", str(path)], capsys)[0] == 0
    code, out, _ = run(["peaks", str(path)], capsys)
    peak = json.loads(out)
    assert (code, peak["k"]) == (0, k)
    for order in range(1, k + 1):
        code, out, _ = run(["corr", str(path), "--k", str(order), "--periodic"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert (doc["classification"] == "full-peak") == (order == k)
    assert (doc["D"], doc["value"]) == (peak["shifts"], peak["theta"])


def test_bounds_table(capsys):
    code, out, _ = run(["bounds", "table1", "--ell-max", "6"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {r["family"] for r in rows} >= {"m-sequence", "gold"}


def test_bounds_table_csv(capsys):
    code, out, _ = run(["bounds", "table1", "--ell-max", "6", "--csv"], capsys)
    assert code == 0
    header = out.splitlines()[0]
    assert header.rstrip("\r") == "family,ell,period,dimension,threshold,claimed,matches"


def test_bounds_thm2(capsys):
    code, out, _ = run(["bounds", "thm2", "--n", "62", "--l", "5"], capsys)
    doc = json.loads(out)
    assert doc["fired"] and doc["t"] == 2 and doc["k_max"] == 4


def test_bounds_cor3(capsys):
    code, out, err = run(["bounds", "cor3", "--k", "2", "--n", "16"], capsys)
    doc = json.loads(out)
    assert (code, sorted(doc), doc["value"]) == (0, ["K", "N", "manifest", "value"], 3.5)
    assert err == ("asymptotic log formula 3.500 (not a bound at every N; "
                   "hypothesis C_j(S, N) < N/2 for every j <= K)\n")
    code, _, _ = run(["bounds", "cor3", "--k", "40", "--n", "16"], capsys)
    assert code == 2


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_bounds_cor3_non_finite_delta_is_usage_error(delta, capsys):
    # cor3 takes no additive constant, so any --delta is refused, not printed
    code, out, err = run(["bounds", "cor3", "--k", "2", "--n", "16", f"--delta={delta}"], capsys)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: --delta={delta}" in err


def test_bounds_verify_claims(ms3, capsys):
    for claim in ("thm1", "thm2", "thm4"):
        code, out, _ = run(["bounds", "verify", claim, ms3], capsys)
        assert code == 0, (claim, out)
        json.loads(out)


def test_bounds_kerror(ms3, capsys):
    code, out, _ = run(["bounds", "kerror", ms3, "--flips", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["flips"] == 1


@pytest.mark.parametrize("argv", [["msequence", "--ell", "3"], ["gold", "--ell", "5"],
                                  ["kasami-small", "--ell", "4"], ["hall", "--t", "7"],
                                  ["fermat", "--p", "3"]], ids=lambda a: a[0])
def test_gen_rejects_zero_periods(argv, capsys):
    code, out, err = run(["gen", *argv, "--periods", "0"], capsys)
    assert (code, out) == (2, "")
    assert "periods must be >= 1" in err


def test_usage_errors(ms3, tmp_path, capsys):
    assert run(["gen", "msequence", "--ell", "3", "--taps", "ZZ"], capsys)[0] == 2
    assert run(["lc", str(tmp_path / "nope.txt")], capsys)[0] == 2
    assert run(["gen", "gold", "--ell", "4"], capsys)[0] == 2
    assert run(["corr", ms3], capsys)[0] == 2  # --k is required
    code, out, err = run(["bounds", "verify", "thm1", ms3, "--n", "5"], capsys)
    assert (code, out) == (2, "")
    assert err == "seqmeter: --n sets a prefix length; thm1 always checks one full period\n"


def test_budget_exit(ms3, capsys, monkeypatch):
    assert run(["corr", ms3, "--k", "5", "--budget", "10"], capsys)[0] == 3
    monkeypatch.setenv("SEQMETER_BUDGET", "10")
    assert run(["corr", ms3, "--k", "5"], capsys)[0] == 3


@pytest.fixture
def gold5(tmp_path, capsys):
    path = tmp_path / "gold5.txt"
    assert run(["gen", "gold", "--ell", "5", "-o", str(path)], capsys)[0] == 0
    return str(path)


def test_peak_search_budget_exit(gold5, capsys, monkeypatch):
    # the weight-4 level of the anchored search walks its 30 heads by the Gold
    # zeros, with 2^5 field-table entries: 62 > 10
    assert run(["bounds", "verify", "thm1", gold5, "--budget", "10"], capsys)[:2] == (3, "")
    monkeypatch.setenv("SEQMETER_BUDGET", "10")
    code, out, err = run(["peaks", gold5], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("seqmeter: search needs") and "Traceback" not in err


def test_memory_error_exits_3_without_traceback(gold5, capsys, monkeypatch):
    # the budgets price work, not memory, so a search they pass can still run
    # out of it; the generator it loops over then fails to close as well
    from seqmeter import codes

    def walk():
        try:
            yield
        finally:
            raise MemoryError

    def exhausted(*args, **kwargs):
        for _ in walk():
            raise MemoryError

    unraisable = []
    monkeypatch.setattr(codes, "find_periodic_peak", exhausted)
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    for argv in (["peaks", gold5], ["bounds", "verify", "thm1", gold5]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, ""), argv
        assert err == "seqmeter: search ran out of memory\n", argv
    assert unraisable == [] and sys.unraisablehook == unraisable.append


def test_constructive_thm2_budget_exit(gold5, capsys):
    # order 2 alone would cost 79422 summands, so the window search runs; its
    # anchored weight-5 level walks C(30, 2) heads by the Gold zeros, with 2^5
    # field-table entries: 467 > 464
    code, out, err = run(["bounds", "verify", "thm2", gold5, "--budget", "464"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("seqmeter: search needs") and "Traceback" not in err
    assert run(["bounds", "verify", "thm2", gold5, "--budget", "870"], capsys)[0] == 0


def test_thm2_constructive_witnesses(tmp_path, capsys):
    # the exhaustive order-2 search is priced above its fallback cost, so the
    # window-collision search answers
    ms6 = tmp_path / "ms6.txt"
    assert run(["gen", "msequence", "--ell", "6", "-o", str(ms6)], capsys)[0] == 0
    code, out, _ = run(["bounds", "verify", "thm2", str(ms6)], capsys)
    assert code == 0
    # c_0 = 1 and L = 6 <= N/2: the search anchored at coordinate 0
    assert json.loads(out)["witness"] == {
        "D": [0, 1, 6], "U": 63, "k": 3, "method": "constructive", "value": 63}
    one = tmp_path / "one70.txt"
    save(BitSequence.from_int(1, 70), one)
    code, out, _ = run(["bounds", "verify", "thm2", str(one), "--budget", "1000"], capsys)
    assert code == 0
    # 10...0 has L = 1 with f = x, so the search runs on the windows from 1 on;
    # the budget prices out the exhaustive order-2 search
    assert json.loads(out)["witness"] == {
        "D": [1, 2], "U": 35, "k": 2, "method": "constructive", "value": 35}
    # two periods of gold 11 behind a period-breaking bit: f = x g with g the
    # Gold recurrence, so the windows from 1 on take the zeros path
    broken = tmp_path / "gold11x.txt"
    save(_gold_prefix_with_breaking_bit(11), broken)
    code, out, _ = run(["bounds", "verify", "thm2", str(broken)], capsys)
    assert code == 0
    assert json.loads(out)["witness"] == {
        "D": [1, 2, 4, 1778, 1925], "U": 2047, "k": 5, "method": "constructive", "value": 2047}


def test_json_flag_removed(ms3, capsys):
    for argv in (["--json", "lc", ms3], ["lc", ms3, "--json"]):
        assert run(argv, capsys)[0] == 2


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    seen: list[int] = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_jobs_clamped_to_cores_and_slices(ms3, gold5, tmp_path, capsys, monkeypatch):
    expected = {argv[0]: run(argv + ["--quiet"], capsys)[1]
                for argv in (["corr", ms3, "--k", "3"], ["peaks", gold5])}
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "seen", [])
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr(parallel, "FORK_BREAK_EVEN", 0)  # these searches are below it
    for argv in (["corr", ms3, "--k", "3"], ["peaks", gold5]):
        code, out, _ = run(argv + ["--jobs", "1000", "--quiet"], capsys)
        assert code == 0
        assert json.loads(out)["manifest"]["jobs"] == 1000
        # the manifest records the argv parsed, so it names the clamped option too
        out = out.replace('"jobs": 1000', '"jobs": 1').replace('"--jobs", "1000", ', "")
        assert out == expected[argv[0]]
    # aperiodic k=3 on 14 bits has 12 first shifts; gold5 peaks runs levels 4 and 5
    assert RecordingExecutor.seen == [4, 4, 4]
    # five heads (0, g), g <= 15/3, for the periodic order-3 scan of a 15-periodic sequence
    ms4 = str(tmp_path / "ms4.txt")
    assert run(["gen", "msequence", "--ell", "4", "-o", ms4], capsys)[0] == 0
    assert run(["corr", ms4, "--k", "3", "--periodic", "--jobs", "1000"], capsys)[0] == 0
    assert RecordingExecutor.seen[-1] == 4
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    assert run(["corr", ms4, "--k", "3", "--periodic", "--jobs", "1000"], capsys)[0] == 0
    assert RecordingExecutor.seen[-1] == 5


def test_quiet_both_positions(ms3, capsys):
    for argv in (["--quiet", "lc", ms3], ["lc", ms3, "--quiet"]):
        code, out, err = run(argv, capsys)
        assert code == 0
        json.loads(out)
        assert err == ""


def test_determinism(ms3, capsys):
    a = run(["corr", ms3, "--k", "3", "--quiet"], capsys)[1]
    b = run(["corr", ms3, "--k", "3", "--quiet"], capsys)[1]
    assert a == b


def test_verify_quick_reports_known_mismatch(capsys, monkeypatch):
    # the roll-up reports a failing check by name and exits 1, while the
    # seven shipped checks (table-thresholds included) all pass
    def check_known_mismatch(scale, seed):
        return verify.CheckResult("known-mismatch", False, "injected failure", 0.0, 1.0)

    real = verify.ALL_CHECKS
    monkeypatch.setattr(verify, "ALL_CHECKS", real + (check_known_mismatch,))
    code, out, err = run(["verify", "all", "--scale", "quick"], capsys)
    assert code == 1
    doc = json.loads(out)
    names = {c["name"]: c["passed"] for c in doc["checks"]}
    assert len(names) == len(real) + 1 == 8
    assert [n for n, ok in names.items() if not ok] == ["known-mismatch"]
    assert names["table-thresholds"] is True
    assert doc["passed"] is False
    assert "[FAIL] known-mismatch" in err
    assert "[FAIL] table-thresholds" not in err


def test_subprocess_roundtrip(tmp_path):
    path = tmp_path / "g5.txt"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    gen = subprocess.run(
        [sys.executable, "-m", "seqmeter.cli", "gen", "gold", "--ell", "5",
         "-o", str(path)],
        env=env, capture_output=True, text=True)
    assert gen.returncode == 0
    lc = subprocess.run(
        [sys.executable, "-m", "seqmeter.cli", "lc", str(path), "--quiet"],
        env=env, capture_output=True, text=True)
    assert lc.returncode == 0
    assert json.loads(lc.stdout)["value"] == 10


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_outside_checkout(script, tmp_path):
    # each script puts the checkout's src/ on sys.path itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(script), "--help"], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_compare_bounds_log_column_stays_below_true_lc(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_bounds.py"),
                          "--random", "1", "--k-max", "3"], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    header, *rows = res.stdout.splitlines()
    assert "log L ~" in header
    assert len(rows) == 6  # five named sequences and one random one
    logged = 0
    for row in rows:
        # the name may hold spaces: read N, K, scan L, log L, true L, scan M, true M from the right
        log_l, true_l = row.split()[-4:-2]
        if log_l != "-":
            logged += 1
            assert float(log_l) <= int(true_l), row
    assert logged


RUN_MAIN = """
import contextlib, io
from seqmeter.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main({argv!r})
    except SystemExit as exc:
        code = exc.code
assert code == 0, code
"""
CLI = ["budget", "cli", "commands"]


@pytest.mark.parametrize("setup,loaded", [
    ("import seqmeter", []),
    ("import seqmeter.cli", CLI),
    (RUN_MAIN.format(argv=["--version"]), CLI),
    (RUN_MAIN.format(argv=["lc", "ms3.txt"]), CLI + ["bitseq", "commands.complexity", "complexity"]),
    (RUN_MAIN.format(argv=["corr", "ms3.txt", "--k", "2"]),
     CLI + ["bitseq", "commands.corr", "correlation", "parallel"]),
    (RUN_MAIN.format(argv=["peaks", "ms3.txt"]),
     CLI + ["bitseq", "codes", "commands.peaks", "parallel", "thresholds"]),
    (RUN_MAIN.format(argv=["bounds", "verify", "thm1", "ms3.txt"]),
     CLI + ["bitseq", "codes", "commands.bounds", "parallel", "thresholds"]),
    (RUN_MAIN.format(argv=["gen", "msequence", "--ell", "3"]), CLI + ["bitseq", "commands.gen", "generators"]),
    (RUN_MAIN.format(argv=["moc", "ms3.txt"]), CLI + ["bitseq", "commands.complexity", "complexity"]),
    (RUN_MAIN.format(argv=["kerror", "ms3.txt", "--k", "1"]),
     CLI + ["bitseq", "commands.complexity", "complexity"]),
    (RUN_MAIN.format(argv=["bounds", "table1"]), CLI + ["commands.bounds", "thresholds"]),
    (RUN_MAIN.format(argv=["bounds", "thm2", "--n", "62", "--l", "5"]), CLI + ["commands.bounds", "thresholds"]),
    (RUN_MAIN.format(argv=["bounds", "cor3", "--k", "2", "--n", "16"]),
     CLI + ["bitseq", "bounds", "commands.bounds"]),
    (RUN_MAIN.format(argv=["bounds", "verify", "thm2", "ms3.txt"]),
     CLI + ["bitseq", "bounds", "commands.bounds", "complexity", "correlation", "parallel", "thresholds"]),
    (RUN_MAIN.format(argv=["bounds", "verify", "thm4", "ms3.txt"]),
     CLI + ["bitseq", "bounds", "commands.bounds", "complexity", "correlation", "parallel"]),
    (RUN_MAIN.format(argv=["bounds", "kerror", "ms3.txt", "--flips", "1"]),
     CLI + ["bitseq", "bounds", "commands.bounds", "correlation", "parallel"]),
], ids=["package", "cli", "version", "lc", "corr", "peaks", "thm1", "gen", "moc", "kerror",
        "table1", "bounds-thm2", "cor3", "verify-thm2", "verify-thm4", "bounds-kerror"])
def test_import_footprint(setup, loaded, tmp_path, capsys):
    # each command loads only its own command module and the modules it runs
    assert run(["gen", "msequence", "--ell", "3", "-o", str(tmp_path / "ms3.txt")], capsys)[0] == 0
    code = f"{setup}\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('seqmeter')))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == str(sorted(["seqmeter", *(f"seqmeter.{m}" for m in loaded)]))


# every command's and subcommand's options and positionals, as its --help lists them
HELP = {
    "gen": ((), ["{msequence,gold,kasami-small,hall,fermat}"]),
    "gen msequence": (("--ell", "--taps", "--seed", "--periods", "-o", "--output"), []),
    "gen gold": (("--ell", "--shift", "--periods", "-o", "--output"), []),
    "gen kasami-small": (("--ell", "--shift", "--periods", "-o", "--output"), []),
    "gen hall": (("--t", "--g", "--periods", "-o", "--output"), []),
    "gen fermat": (("--p", "--periods", "-o", "--output"), []),
    "lc": (("--n", "--profile"), ["file"]),
    "moc": (("--n", "--profile"), ["file"]),
    "kerror": (("--n", "--k", "--budget"), ["file"]),
    "corr": (("--k", "--n", "--periodic", "--budget", "--jobs"), ["file"]),
    "peaks": (("--tmax", "--jobs"), ["file"]),
    "bounds": ((), ["{table1,thm2,cor3,verify,kerror}"]),
    "bounds table1": (("--ell-max", "--csv"), []),
    "bounds thm2": (("--n", "--l"), []),
    "bounds cor3": (("--k", "--n"), []),
    "bounds verify": (("--n", "--budget"), ["{thm1,thm2,thm4}", "file"]),
    "bounds kerror": (("--n", "--k", "--flips", "--budget"), ["file"]),
    "verify": ((), ["{all}"]),
    "verify all": (("--scale", "--seed"), ["{quick,full}"]),
}


@pytest.mark.parametrize("command", HELP)
def test_help_lists_every_option(command, capsys):
    # the parser is built for the invoked command only, so each needs its own help run
    options, positionals = HELP[command]
    code, out, err = run([*command.split(), "--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: seqmeter {command} [-h]")
    assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out)) == {"-h", "--help", *options}
    for word in positionals:
        assert word in out


def test_help_covers_every_command():
    assert [c for c in HELP if " " not in c] == list(COMMANDS)


def test_unknown_command_lists_every_command(capsys):
    for argv in (["nope"], ["--quiet", "nope", "lc"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert "invalid choice: 'nope'" in err
        choices = err.split("choose from")[1]
        assert all(f"'{name}'" in choices for name in COMMANDS)


def test_parser_follows_main_argv_not_sys_argv(ms3, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["seqmeter", "gen", "gold", "--ell", "5"])
    code, out, _ = run(["lc", ms3], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 3


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_in_fresh_process(command):
    # a command module is imported only when its command runs, so an import
    # error in one shows only when that command starts in a process of its own
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    res = subprocess.run([sys.executable, "-m", "seqmeter.cli", command, "--help"], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout.startswith(f"usage: seqmeter {command} [-h]")
