"""seqmeter benchmark: three closed-loop workloads, an answer gate and per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all               # every workload in turn

One run sets the workload up five times (inputs from the seed, files,
warm-up; the first before measuring, the rest spread over the run).  It
asks every query once per round, starting rounds while the next one is
expected to end within ``--seconds`` (at least three rounds), checks
every answer and prints each metric by name and unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

On a shared machine other tenants slow every core by up to 1.8x for
stretches from seconds to several minutes, long enough to cover whole
runs, so no statistic of wall times taken within one run is steady from
run to run.  Every timed execution and every set-up is therefore timed
between two runs of a fixed reference that calls no seqmeter code: a
pure-Python loop (``_reference_work``) for the in-process workloads, a
child interpreter importing ``json`` and ``argparse`` for cli-oneshot.
A neighbour slows the reference and the program alike, while a change to
the program moves only the program.  ``batch_s`` is the sum over the
queries of each query's median ratio of its time to the mean of its two
references, and ``setup_s`` the median of the same ratio over the
set-ups, both multiplied by the reference's time on a quiet machine
(``REFERENCE_S``): they read as seconds at quiet-machine speed.  The
wall figures (``wall_batch_s``, the sum of each query's fastest
execution, and ``wall_setup_s``, the median set-up) are printed and kept
in the results file with every sample and ratio, and with the p50 and
p90 of every execution's latency pooled; for cli-oneshot those are the
per-invocation latencies ``cli.p50_ms`` and ``cli.p90_ms``, which the
neighbours move too much to gate on, so they are per-layer metrics.

``--trace 0`` reports the end-to-end metrics, timed with tracing off.
``--trace 1`` asks every query twice per round, once untraced and once
inside spans, and reports the per-layer metrics, including the tracing
overhead.  Results go to ``perfbench/results/``.

An answer fails when its query raises, exits with an unexpected code,
fails its definition check (gate.py), differs from another execution of
the same query, or, at the default seed, differs from the committed
reference digest in ``digests.json``.  ``--record-digests`` rewrites that
reference from a run at the default seed whose answers all pass their
definition checks.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from spans import NullTracer, Tracer, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_ROUNDS = 3
# the CLI's child reference imports the standard modules the CLI starts with
CHILD_REFERENCE = "import json, argparse"
# each reference's time between queries on a quiet 2-vCPU Intel Xeon VM
# (Python 3.11): the speed that batch_s and setup_s are expressed at
REFERENCE_S = {"in-process": 0.0025, "child": 0.048}

# metric names and units come from the benchmark's definition at the repo root
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
COUNTS = ("complexity.bits", "correlation.summands_est", "codes.table_est")


def _import_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "seqmeter" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no seqmeter sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import seqmeter

    if Path(seqmeter.__file__).resolve().parent != SRC / "seqmeter":
        raise SystemExit(f"perfbench: imported seqmeter from {seqmeter.__file__}, not {SRC}")


def _machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": cpu,
            "git_commit": commit}


def _steal_s() -> float | None:
    """Time the hypervisor ran others while this machine's CPUs wanted to run."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


_REF_WORD = int("9e3779b97f4a7c15f39cc0605cedc834" * 2, 16)


def _reference_work() -> None:
    """A fixed pure-Python loop that calls no seqmeter code.

    Its mix of interpreter dispatch, list and dict access and shifts, masks
    and popcounts of a 256-bit int is the one the kernels spend their time
    in, so neighbours that slow the machine slow it by about the same factor.
    """
    data, table, acc, x = list(range(512)), {}, 0, _REF_WORD
    for i in range(8000):
        v = data[(i * 7) & 511]
        x = (x >> 1) ^ (_REF_WORD if x & 1 else 0)
        acc += ((x >> v % 200) & 0xFFFF).bit_count()
        table[v] = acc


def _speed_reference(name: str, workdir: Path):
    """The workload's reference as (timed call, its time on a quiet machine).

    The CLI queries are child interpreters, which neighbours slow less than
    in-process loops, so their reference is a child interpreter too.
    """
    if name == "cli-oneshot":
        import workloads

        workdir.mkdir(parents=True, exist_ok=True)
        cmd, env = [sys.executable, "-c", CHILD_REFERENCE], workloads._cli_env(ROOT)

        def work():
            subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=120,
                           check=True)
        nominal = REFERENCE_S["child"]
    else:
        work, nominal = _reference_work, REFERENCE_S["in-process"]

    def timed() -> float:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start

    return timed, nominal


def _reference(name: str, seed: int, scale: str) -> dict:
    if seed != DEFAULT_SEED or scale != "full":
        return {}
    path = HERE / "digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(name, {})


class Verdicts:
    """Counts attempted and failed executions and remembers each query's answer."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, str] = {}
        self.first: dict[str, tuple[str, object]] = {}  # qid -> (digest, answer)
        self._checked: dict[tuple[str, str], str | None] = {}

    def judge(self, query, raw, error) -> None:
        self.attempted += 1
        problem = error
        if problem is None:
            try:
                answer = query.canon(raw)
                d = gate.digest(answer)
                key = (query.qid, d)
                if key not in self._checked:
                    self._checked[key] = query.check(answer)
                problem = self._checked[key]
            except Exception as exc:  # a malformed answer must count, not crash the run
                answer, d, problem = None, None, f"unreadable answer: {exc!r}"
            first = self.first.setdefault(query.qid, (d, answer))
            if problem is None and d != first[0]:
                problem = f"answer digest {d} differs from an earlier execution ({first[0]})"
            ref = self.reference.get(query.qid)
            if problem is None and ref is not None and d != ref:
                problem = f"answer digest {d} differs from the reference {ref}"
        if problem is not None:
            self.failed += 1
            self.problems.setdefault(query.qid, problem)


def _execute(query, tracer, rnd):
    """One timed execution: (seconds, raw result, error or None)."""
    start = time.perf_counter()
    try:
        with tracer.query(query.qid, rnd):
            raw = query.run(tracer)
        return time.perf_counter() - start, raw, None
    except Exception as exc:  # a raising query is a failed answer, not a crashed run
        return time.perf_counter() - start, None, f"raised {exc!r}"


def _setup(name, seed, scale, workdir):
    import workloads  # imports seqmeter, so only after _import_program

    wl = workloads.build(name, seed, scale, workdir, ROOT)
    if name == "cli-oneshot":
        warm = [p for p in wl.probes if p.qid == "import"]
    else:
        warm = workloads.build(name, seed, "tiny", workdir, ROOT).queries
    for q in warm:
        q.run(NullTracer())
    return wl


def _fastest_round(per_round: dict[int, dict[str, float]], metric: str) -> float:
    return min(r.get(metric, 0.0) for r in per_round.values())


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: int, traced: bool, scale: str = "full",
                 rounds: int | None = None, record: bool = False) -> dict:
    workdir = HERE / "work" / name
    setups: list[float] = []
    setup_ratios: list[float] = []
    reference, reference_s = _speed_reference(name, workdir)

    def timed_setup():
        before = reference()
        start = time.perf_counter()
        wl = _setup(name, seed, scale, workdir)
        setups.append(time.perf_counter() - start)
        setup_ratios.append(setups[-1] / statistics.mean((before, reference())))
        return wl

    steal_start = _steal_s()
    wl = timed_setup()
    verdicts = Verdicts({} if record else _reference(name, seed, scale))
    null, tracer = NullTracer(), Tracer()
    plain: dict[str, list[float]] = {q.qid: [] for q in wl.queries}
    ratios: dict[str, list[float]] = {q.qid: [] for q in wl.queries}
    measure_start = time.perf_counter()
    last_round = 0.0
    done = 0
    after = None  # the reference timed right after the last untraced execution

    def more_rounds() -> bool:
        if rounds is not None:
            return done < rounds
        elapsed = time.perf_counter() - measure_start
        return done < MIN_ROUNDS or elapsed + last_round <= seconds

    while more_rounds():
        round_start = time.perf_counter()
        for i, q in enumerate(wl.queries):
            # alternate which side runs first so drift does not favour one
            sides = [null, tracer] if traced else [null]
            if (done + i) % 2:
                sides.reverse()
            for tr in sides:
                # an untraced execution is timed between two references, the
                # one after it serving as the next one's reference before
                before = (after or reference()) if tr is null else None
                dt, raw, err = _execute(q, tr, done)
                after = reference() if tr is null else None
                verdicts.judge(q, raw, err)
                if tr is null:
                    plain[q.qid].append(dt)
                    ratios[q.qid].append(dt / statistics.mean((before, after)))
        if traced:
            for p in wl.probes:
                _, raw, err = _execute(p, tracer, done)
                verdicts.judge(p, raw, err)
        last_round = time.perf_counter() - round_start
        done += 1
        # the remaining set-ups are spread over the run, so their median samples
        # the machine at several moments rather than during one burst
        due = len(setups) * seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and (rounds or time.perf_counter() - measure_start >= due):
            timed_setup()
        after = None  # probes or a set-up may have run since
    while len(setups) < SETUP_REPEATS:
        timed_setup()

    steal_end = _steal_s()
    batch = sum(min(v) for v in plain.values())
    batch_ratio = sum(statistics.median(v) for v in ratios.values())
    pooled = sorted(t for v in plain.values() for t in v)
    latency = {"p50_ms": 1000 * statistics.median(pooled), "p90_ms": 1000 * _quantile(pooled, 90)}
    counts = {c: 0 for c in COUNTS}
    for q in wl.queries:
        if q.qid in verdicts.first:
            for c, v in q.counts(verdicts.first[q.qid][1]).items():
                counts[c] += v
    end_to_end = {
        "batch_s": reference_s * batch_ratio,
        "setup_s": reference_s * statistics.median(setup_ratios),
        "peak_rss_mb": _peak_rss_mb(),
    }
    metrics, units = end_to_end, END_TO_END
    if traced:
        per_round = layer_totals(tracer.spans)
        metrics, units = {}, PER_LAYER
        for m, unit in PER_LAYER.items():
            if m in COUNTS:
                metrics[m] = counts[m]
            else:
                metrics[m] = (1000 if unit == "ms" else 1) * _fastest_round(per_round, m)
        if wl.probes:
            metrics["cli.import_ms"] -= metrics["cli.interp_ms"]
            metrics["cli.p50_ms"] = latency["p50_ms"]
            metrics["cli.p90_ms"] = latency["p90_ms"]
        metrics["correlation.jobs2_speedup"] = _jobs2_speedup(tracer.spans)
        traced_batch = sum(min(
            s.end - s.start for s in tracer.spans if s.query == q.qid and s.parent is None)
            for q in wl.queries)
        metrics["trace.overhead_frac"] = traced_batch / batch - 1
    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(traced),
        "rounds": done,
        "machine": _machine(),
        # a diagnostic for noisy runs: CPU time other guests took during this one
        "host_steal_s": None if steal_start is None or steal_end is None
        else steal_end - steal_start,
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "failed_frac": verdicts.failed / verdicts.attempted,
        "problems": verdicts.problems,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "end_to_end": {m: {"value": v, "unit": END_TO_END[m]} for m, v in end_to_end.items()},
        "pooled_latency": latency,
        "work_estimates": counts,
        "setup_samples_s": setups,
        "wall": {"batch_s": batch, "setup_s": statistics.median(setups)},
        "queries": {
            q.qid: {"digest": verdicts.first[q.qid][0] if q.qid in verdicts.first else None,
                    "fastest_s": min(plain[q.qid]), "median_s": statistics.median(plain[q.qid]),
                    "samples_s": plain[q.qid], "reference_ratios": ratios[q.qid]}
            for q in wl.queries
        },
    }
    if traced:
        result["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    return result


def _jobs2_speedup(spans) -> float:
    """Fastest jobs=1 kernel time over fastest jobs=2 time on the same input."""
    by_query: dict[str, list[float]] = {}
    for s in spans:
        if s.name == "correlation.aperiodic_measure":
            by_query.setdefault(s.query, []).append(s.end - s.start)
    pairs = [(q[:-len("-jobs2")], q) for q in by_query if q.endswith("-jobs2")]
    if not pairs:
        return 0.0
    one, two = pairs[0]
    return min(by_query[one]) / min(by_query[two])


def _write(result: dict) -> None:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans", None)
    if spans is not None:
        (out / f"{stem}-spans.json").write_text(json.dumps(spans))
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))


def _report(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} rounds={result['rounds']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print(f"failed_frac {result['failed_frac']:.6g} ratio")
    for m, v in result["pooled_latency"].items():
        print(f"latency_{m} {v:.6g} ms")
    for m, v in result["wall"].items():
        print(f"wall_{m} {v:.6g} s")
    # a traced run also shows its untraced end-to-end figures
    shown = dict(result["end_to_end"], **result["metrics"])
    for m, v in shown.items():
        print(f"{m} {v['value']:.6g} {v['unit']}")
    for qid, problem in result["problems"].items():
        print(f"FAILED {qid}: {problem}")


def _record_digests(result: dict) -> None:
    if result["failed"]:
        raise SystemExit("perfbench: not recording digests from a run with failed answers")
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    table[result["workload"]] = {q: v["digest"] for q, v in result["queries"].items()}
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite the reference digests from this run (default seed only)")
    args = parser.parse_args(argv)
    _import_program()
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs the default seed {DEFAULT_SEED}")
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              record=args.record_digests)
        _write(result)
        _report(result)
        if args.record_digests:
            _record_digests(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
