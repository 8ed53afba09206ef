"""The three benchmark workloads: inputs made from a seed, and their queries.

Each workload is a fixed list of queries, asked one at a time by a single
caller that waits for every answer (closed loop, one client).  A query's
``run`` is the timed part: it calls seqmeter's public functions through
the tracer, which names each call ``<module>.<function>`` and tags it
with the per-layer metric it feeds.  ``canon`` turns the raw result into
a JSON answer outside the timed region, and ``check`` re-derives that
answer from the definitions in gate.py.

Every query is kept near 0.1 s or less.  Other tenants of a shared
machine slow it in bursts; a short call often runs between two bursts,
so its fastest time over a run (from which the per-layer figures come)
is steady, and a short call sits close in time to the references that
run.py times beside it.  Sizes are therefore smaller than the largest
the kernels can do, and costs that depend on the input are averaged over
several seeded inputs.

Why each workload exists:

* kernels -- only ``bitseq``, ``complexity`` and ``correlation`` work
  here, with ``bounds`` calls that reduce to them; ``codes`` is bypassed.
  Two query sets, kept apart in the per-layer metrics:

  - complexity: the window-scan MOC costs grow with M, so the inputs
    cover M ~ ell (a many-period m-sequence), M ~ 2 log N (random) and
    M ~ N (``0...01`` and a long run followed by random bits);
  - correlation: the aperiodic and periodic scans.  The m-sequence
    periodic query reaches a full peak at once, so pruning fires early;
    the random block has no peak, so pruning barely fires.  A kernel
    change and a pruning change show on different queries.

  The two sets share one workload so that each run can last 40 s: other
  tenants slow the machine for stretches of half a minute, and a longer
  run is more likely to include a quiet stretch.
* peak-certify -- the ``codes`` span elimination and dual search
  dominate.  The thm2 witnesses run the same kernel on window columns
  that are not cyclic, so a cyclic-only reduction should leave them flat.
  Gold ell=9 is left out (one call takes about 19 s), and so are the
  m-sequences of degree 11 and 12 (0.3-3 s per call).
* cli-oneshot -- interpreter start, import, argparse and JSON dominate;
  the kernels do almost nothing.  One over-budget ``corr`` must be
  refused with exit 3 and no traceback.
"""

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import gate
from seqmeter import (
    BitSequence,
    aperiodic_measure,
    build_span,
    dumps,
    find_half_peak_witness,
    find_periodic_peak,
    full_peak_threshold,
    gold_sequence,
    half_peak_threshold,
    kerror_bound,
    kerror_linear_complexity,
    linear_complexity,
    linear_complexity_profile,
    loads,
    m_sequence,
    max_order_complexity,
    max_order_complexity_profile,
    moc_half_peak_check,
    periodic_measure,
    search_cost,
    small_kasami,
    table1,
)
from seqmeter.correlation import periodic_search_cost
from seqmeter.generators import DEFAULT_TAPS

WORKLOADS = ("kernels", "peak-certify", "cli-oneshot")


@dataclass
class Query:
    qid: str
    run: Callable[[Any], Any]
    canon: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    counts: Callable[[Any], dict[str, int]] = lambda ans: {}  # work estimates from the answer


@dataclass
class Workload:
    name: str
    queries: list[Query]
    probes: list[Query] = field(default_factory=list)  # traced rounds only


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _random_seq(rng: random.Random, n: int) -> BitSequence:
    return BitSequence.from_int(rng.getrandbits(n), n)


def _rephase(seq: BitSequence, phase: int, periods: int) -> BitSequence:
    """The same periodic sequence started at another phase, over `periods` periods."""
    t = seq.period
    p = phase % t
    block = seq.data & ((1 << t) - 1)
    block = ((block >> p) | (block << (t - p))) & ((1 << t) - 1)
    data = 0
    for r in range(periods):
        data |= block << (r * t)
    return BitSequence.from_int(data, t * periods, t)


def _bits(seq: BitSequence) -> str:
    return gate.bits_of(seq.data, seq.n)


def _first(*problems):
    return next((p for p in problems if p), None)


# --- kernels: complexity queries ------------------------------------------

COMPLEXITY_SIZES = {
    # random N for BM, random N and input count for MOC, m-sequence degree and periods,
    # 0...01 length, run+random length, k-error n and flips.  The window scan's cost on
    # a random input depends on where its last conflicts fall (up to 5x between inputs),
    # so MOC runs on many random inputs to keep the batch's cost steady across seeds.
    "full": dict(rand=16000, moc_n=8000, moc_inputs=16, ell=12, periods=8, worst=800,
                 runrand=1200, kn=24, ke=3),
    "tiny": dict(rand=2000, moc_n=1000, moc_inputs=2, ell=6, periods=4, worst=200,
                 runrand=240, kn=14, ke=2),
}


def _lc_query(qid, text, bits, profile):
    fn = linear_complexity_profile if profile else linear_complexity
    name = "complexity." + fn.__name__

    def run(tr):
        seq = tr.call("bitseq.loads", "bitseq.loads_s", loads, text)
        return tr.call(name, "complexity.lc_s", fn, seq)

    def canon(raw):
        if profile:
            return {"value": raw.final, "coefficients": "".join(map(str, raw.coefficients)),
                    "profile": list(raw.values)}
        return {"value": raw[0], "coefficients": "".join(map(str, raw[1]))}

    def check(ans):
        coeffs = [int(c) for c in ans["coefficients"]]
        return _first(gate.check_recurrence(bits, ans["value"], coeffs),
                      profile and gate.check_profile(ans["profile"], ans["value"]))

    return Query(qid, run, canon, check, lambda ans: {"complexity.bits": len(bits)})


def _moc_query(qid, text, bits, profile, metric):
    fn = max_order_complexity_profile if profile else max_order_complexity
    name = "complexity." + fn.__name__

    def run(tr):
        seq = tr.call("bitseq.loads", "bitseq.loads_s", loads, text)
        return tr.call(name, metric, fn, seq)

    def canon(raw):
        if profile:
            return {"value": raw.final, "profile": list(raw.values)}
        return {"value": raw}

    def check(ans):
        if not profile:
            return gate.check_moc(bits, ans["value"])
        values = ans["profile"]
        probes = (len(bits) // 4, len(bits) // 2)
        return _first(gate.check_profile(values, ans["value"]),
                      gate.check_moc(bits, ans["value"]),
                      *(gate.check_moc(bits[:n], values[n - 1]) for n in probes))

    return Query(qid, run, canon, check, lambda ans: {"complexity.bits": len(bits)})


def _kerror_query(qid, text, bits, errors):
    def run(tr):
        seq = tr.call("bitseq.loads", "bitseq.loads_s", loads, text)
        return tr.call("complexity.kerror_linear_complexity", "complexity.kerror_s",
                       kerror_linear_complexity, seq, errors=errors)

    n = len(bits)
    patterns = sum(math.comb(n, w) for w in range(errors + 1))
    return Query(qid, run, lambda raw: {"value": raw},
                 lambda ans: gate.check_kerror(bits, errors, ans["value"]),
                 lambda ans: {"complexity.bits": n * patterns})


def _complexity_queries(seed: int, scale: str) -> list[Query]:
    sz = COMPLEXITY_SIZES[scale]
    rng = _rng("complexity", seed)
    run_len = sz["runrand"] // 2
    runrand = rng.getrandbits(sz["runrand"] - run_len) << run_len
    if rng.getrandbits(1):  # a run of ones instead of zeros
        runrand |= (1 << run_len) - 1
    ms = m_sequence(sz["ell"])
    seqs = {
        "random": _random_seq(rng, sz["rand"]),
        "mseq": _rephase(ms, rng.randrange(ms.period), sz["periods"]),
        "worst": BitSequence.from_int(1 << (sz["worst"] - 1), sz["worst"]),
        "runrand": BitSequence.from_int(runrand, sz["runrand"]),
        "kerror-a": _random_seq(rng, sz["kn"]),
        "kerror-b": _random_seq(rng, sz["kn"]),
    }
    texts = {k: dumps(s) for k, s in seqs.items()}
    bits = {k: _bits(s) for k, s in seqs.items()}
    # M ~ N inputs feed moc_worst_s, the quadratic case of the window scan
    worst = "complexity.moc_worst_s"
    q = [
        _lc_query("lc/random", texts["random"], bits["random"], False),
        _lc_query("lc-profile/random", texts["random"], bits["random"], True),
        _lc_query("lc/mseq", texts["mseq"], bits["mseq"], False),
        _moc_query("moc/mseq", texts["mseq"], bits["mseq"], False, "complexity.moc_s"),
        _moc_query("moc-profile/mseq", texts["mseq"], bits["mseq"], True, "complexity.moc_s"),
        _lc_query("lc-profile/worst", texts["worst"], bits["worst"], True),
        _moc_query("moc/worst", texts["worst"], bits["worst"], False, worst),
        _moc_query("moc-profile/worst", texts["worst"], bits["worst"], True, worst),
        _lc_query("lc/runrand", texts["runrand"], bits["runrand"], False),
        _moc_query("moc/runrand", texts["runrand"], bits["runrand"], False, worst),
        _kerror_query("kerror/a", texts["kerror-a"], bits["kerror-a"], sz["ke"]),
        _kerror_query("kerror/b", texts["kerror-b"], bits["kerror-b"], sz["ke"]),
    ]
    for i in range(sz["moc_inputs"]):
        seq = _random_seq(rng, sz["moc_n"])
        kind = "moc-profile" if i % 2 else "moc"
        q.append(_moc_query(f"{kind}/random-{i}", dumps(seq), _bits(seq), i % 2 == 1,
                            "complexity.moc_s"))
    return q


# --- kernels: correlation queries -----------------------------------------

CORRELATION_SIZES = {
    # aperiodic scans as (k, N, inputs), the (k, N) also asked with jobs=2, periodic
    # m-sequence degree, random block period, k-error-bound N, thm4 m-sequence degrees.
    # Pruning makes a scan's cost depend on its input, so several small random
    # inputs per order keep the batch's cost nearly the same from seed to seed.
    "full": dict(ap=((2, 112, 3), (3, 56, 4), (3, 64, 1), (4, 36, 6)), jobs_q=(3, 64), ell=9,
                 block=101, kb=48, lowm=(4, 5)),
    "tiny": dict(ap=((2, 48, 1), (3, 24, 2), (4, 16, 2)), jobs_q=(3, 24), ell=5, block=31,
                 kb=24, lowm=(3, 4)),
}


def _aperiodic_query(qid, seq, k, jobs=1):
    bits = _bits(seq)

    def run(tr):
        return tr.call("correlation.aperiodic_measure", "correlation.aperiodic_s",
                       aperiodic_measure, seq, k, jobs=jobs)

    return Query(qid, run, lambda raw: raw.as_dict(),
                 lambda ans: gate.check_aperiodic(bits, k, ans),
                 lambda ans: {"correlation.summands_est": search_cost(seq.n, k)})


def _periodic_query(qid, seq, k):
    bits = _bits(seq)

    def run(tr):
        return tr.call("correlation.periodic_measure", "correlation.periodic_s",
                       periodic_measure, seq, k)

    return Query(qid, run, lambda raw: raw.as_dict(),
                 lambda ans: gate.check_periodic(bits, seq.period, k, ans),
                 lambda ans: {"correlation.summands_est": periodic_search_cost(seq.period, k)})


def _thm4_query(qid, seq):
    bits = _bits(seq)

    def run(tr):
        return tr.call("bounds.moc_half_peak_check", "bounds.thm4_s", moc_half_peak_check, seq)

    return Query(qid, run, lambda raw: raw.as_dict(), lambda ans: gate.check_thm4(bits, ans))


def _kerror_bound_query(qid, seq, k, flips):
    bits = _bits(seq)

    def run(tr):
        return tr.call("bounds.kerror_bound", "bounds.kerror_s", kerror_bound, seq,
                       k=k, flips=flips)

    return Query(qid, run, lambda raw: raw.as_dict(),
                 lambda ans: gate.check_kerror_bound(bits, k, flips, ans))


def _jobs() -> int:
    """Worker count for the fan-out query: 2, never above the cores available."""
    return max(1, min(2, os.cpu_count() or 1))


def _correlation_queries(seed: int, scale: str) -> list[Query]:
    sz = CORRELATION_SIZES[scale]
    rng = _rng("correlation", seed)
    q = []
    for k, n, inputs in sz["ap"]:
        for i in range(inputs):
            seq = _random_seq(rng, n)
            q.append(_aperiodic_query(f"aperiodic/k{k}-n{n}-{i}", seq, k))
            if (k, n) == sz["jobs_q"] and i == 0:
                q.append(_aperiodic_query(f"aperiodic/k{k}-n{n}-{i}-jobs2", seq, k, _jobs()))
    ms = m_sequence(sz["ell"])
    q.append(_periodic_query(f"periodic/k3-mseq{sz['ell']}",
                             _rephase(ms, rng.randrange(ms.period), 2), 3))
    t = sz["block"]
    block = rng.getrandbits(t)
    q.append(_periodic_query(f"periodic/k4-block{t}",
                             BitSequence.from_int(block | block << t, 2 * t, t), 4))
    for ell in sz["lowm"]:
        # M <= ell, so 2^(M+2) <= N once N reaches 4 * 2^ell: the check always fires
        ms = m_sequence(ell)
        periods = (4 << ell) // ms.period + 2
        q.append(_thm4_query(f"thm4/mseq{ell}", _rephase(ms, rng.randrange(ms.period), periods)))
    kb = _random_seq(rng, sz["kb"])
    q.append(_kerror_bound_query(f"kerror-bound/n{kb.n}-k3-f2", kb, 3, 2))
    return q


def kernels(seed: int, scale: str) -> Workload:
    q = _complexity_queries(seed, scale) + _correlation_queries(seed, scale)
    return Workload("kernels", q)


# --- peak-certify --------------------------------------------------------------

PEAK_SIZES = {
    "full": dict(mseq=(9, 10), gold=(5, 6, 7), kasami=(8, 10), ell_max=20),
    "tiny": dict(mseq=(4, 5), gold=(5,), kasami=(4,), ell_max=8),
}


def _table_est(period: int, order: int) -> int:
    """Hash-table entries the dual search builds: C(T, w//2) per MITM level w >= 4."""
    return sum(math.comb(period, w // 2) for w in range(4, order + 1))


def _span_answer(span) -> dict:
    return {"period": span.period, "dimension": span.dimension, "pivots": list(span.pivots),
            "basis": [format(row, "x") for row in span.basis]}


def _peak_query(qid, seq):
    bits = _bits(seq)
    t = seq.period

    def run(tr):
        span = tr.call("codes.build_span", "codes.span_s", build_span, seq)
        cap = tr.call("codes.full_peak_threshold", "codes.peak_s", full_peak_threshold,
                      t, span.dimension)
        cert = tr.call("codes.find_periodic_peak", "codes.peak_s", find_periodic_peak, span, cap)
        return span, cap, cert

    def canon(raw):
        span, cap, cert = raw
        return {"span": _span_answer(span), "cap": cap,
                "certificate": cert.as_dict() if cert else None}

    def check(ans):
        span = ans["span"]
        return _first(gate.check_span(bits, t, span),
                      gate.check_certificate(bits, t, span["dimension"], ans["cap"],
                                             ans["certificate"]))

    def counts(ans):
        cert = ans["certificate"]
        return {"codes.table_est": _table_est(t, cert["k"] if cert else ans["cap"])}

    return Query(qid, run, canon, check, counts)


def _thm2_query(qid, seq):
    n = 2 * seq.period
    bits = _bits(seq)[:n]
    l = gate.small_lc(bits)

    def run(tr):
        _, k_max = tr.call("bounds.half_peak_threshold", "bounds.thm2_s",
                           half_peak_threshold, n, l)
        return k_max, tr.call("bounds.find_half_peak_witness", "bounds.thm2_s",
                              find_half_peak_witness, seq, n, k_max)

    def check(ans):
        t = next(t for t in range(1, n // 2 + 1) if math.comb(n // 2, t) >= 1 << l)
        if ans["k_max"] != 2 * t:
            return f"order cap {ans['k_max']}, threshold definition gives {2 * t}"
        return gate.check_half_peak(bits, n, ans["k_max"], ans["witness"])

    return Query(qid, run, lambda raw: {"k_max": raw[0], "witness": raw[1]}, check)


def peak_certify(seed: int, scale: str) -> Workload:
    sz = PEAK_SIZES[scale]
    rng = _rng("peak-certify", seed)
    family = [(f"mseq{e}", m_sequence(e)) for e in sz["mseq"]]
    family += [(f"gold{e}", gold_sequence(e)) for e in sz["gold"]]
    family += [(f"kasami{e}", small_kasami(e)) for e in sz["kasami"]]
    # a seeded phase changes the bits but not the cyclic code, so every
    # seed asks the same amount of work
    seqs = [(name, _rephase(s, rng.randrange(s.period), 2)) for name, s in family]
    q = [_peak_query(f"peak/{name}", s) for name, s in seqs]
    q += [_thm2_query(f"thm2/{name}", s) for name, s in seqs]

    def run_table(tr):
        return tr.call("bounds.table1", "bounds.table1_s", table1, sz["ell_max"])

    q.append(Query(f"table1/ell{sz['ell_max']}", run_table, lambda rows: rows, gate.check_table1))
    return Workload("peak-certify", q)


# --- cli-oneshot -------------------------------------------------------------

CLI_SIZES = {
    "full": dict(rand=2000, corr=64, mseq=7, gold=5, thm2=6, lowm=4, big=256, gen=9),
    "tiny": dict(rand=200, corr=24, mseq=4, gold=5, thm2=4, lowm=3, big=64, gen=5),
}


def _cli_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("SEQMETER_BUDGET", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _cli_query(qid, argv, cwd, env, check, expect_exit=0):
    cmd = [sys.executable, *argv]
    metric = f"cli.{qid}_ms"

    def run(tr):
        return tr.call(f"cli.{qid}", metric, subprocess.run, cmd, cwd=cwd, env=env,
                       capture_output=True, timeout=120)

    def canon(proc):
        return {"exit": proc.returncode, "stdout": proc.stdout.decode(),
                "traceback": b"Traceback" in proc.stderr}

    def gated(ans):
        if ans["exit"] != expect_exit:
            return f"exit {ans['exit']}, expected {expect_exit}"
        if ans["traceback"]:
            return "traceback on stderr"
        return check(ans["stdout"])

    return Query(qid, run, canon, gated)


def _json_check(fn):
    def check(stdout):
        try:
            return fn(json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable answer: {exc!r}"

    return check


def _gen_check(ell):
    def check(stdout):
        bits, period = gate.parse_text(stdout)
        t = (1 << ell) - 1
        if period != t or len(bits) != 2 * t or bits[:t] != bits[t:]:
            return "output is not two periods of a period-(2^ell - 1) sequence"
        if gate.small_lc(bits) != ell:
            return "output is not an m-sequence of the requested degree"
        return None

    return check


def cli_oneshot(seed: int, scale: str, workdir: Path, root: Path) -> Workload:
    sz = CLI_SIZES[scale]
    rng = _rng("cli-oneshot", seed)
    files = {
        "rand": _random_seq(rng, sz["rand"]),
        "corr": _random_seq(rng, sz["corr"]),
        "mseq": m_sequence(sz["mseq"]),
        "gold": gold_sequence(sz["gold"]),
        "thm2": m_sequence(sz["thm2"]),
        "lowm": m_sequence(sz["lowm"], periods=6),
        "big": _random_seq(rng, sz["big"]),
    }
    for name in ("mseq", "gold", "thm2", "lowm"):
        s = files[name]
        files[name] = _rephase(s, rng.randrange(s.period), s.n // s.period)
    (workdir / "in").mkdir(parents=True, exist_ok=True)
    for name, seq in files.items():
        (workdir / "in" / f"{name}.txt").write_text(dumps(seq))
    bits = {k: _bits(s) for k, s in files.items()}
    period = {k: s.period for k, s in files.items()}
    env = _cli_env(root)
    gen_taps = format(sum(1 << e for e in DEFAULT_TAPS[sz["gen"]]), "x")
    gen_state = format(rng.randrange(1, 1 << sz["gen"]), "x")
    cli = ["-m", "seqmeter.cli", "--quiet"]

    def cert_check(key):
        # `peaks` answers with the certificate's fields, `bounds verify thm1` nests them
        def check(ans):
            if not ans.get("found", ans.get("holds")):
                return "no certificate"
            return gate.check_certificate(bits[key], period[key], ans["dimension"], ans["tmax"],
                                          ans.get("certificate", ans))
        return check

    def thm2_check(ans):
        n = len(bits["thm2"])
        if ans["L"] != gate.small_lc(bits["thm2"]):
            return "reported L fails the recurrence definition"
        return gate.check_half_peak(bits["thm2"], n, ans["k_max"], ans.get("witness"))

    specs = [
        ("gen", ["gen", "msequence", "--ell", str(sz["gen"]), "--taps", gen_taps,
                 "--seed", gen_state], _gen_check(sz["gen"])),
        ("lc", ["lc", "in/rand.txt"], _json_check(
            lambda a: gate.check_recurrence(bits["rand"], a["value"], a["coefficients"]))),
        ("moc", ["moc", "in/rand.txt"], _json_check(
            lambda a: gate.check_moc(bits["rand"], a["value"]))),
        ("corr", ["corr", "in/corr.txt", "--k", "2"], _json_check(
            lambda a: gate.check_aperiodic(bits["corr"], 2, a))),
        ("corr_periodic", ["corr", "in/mseq.txt", "--k", "3", "--periodic"], _json_check(
            lambda a: gate.check_periodic(bits["mseq"], period["mseq"], 3, a))),
        ("peaks", ["peaks", "in/gold.txt"], _json_check(cert_check("gold"))),
        ("thm1", ["bounds", "verify", "thm1", "in/gold.txt"], _json_check(cert_check("gold"))),
        ("thm2", ["bounds", "verify", "thm2", "in/thm2.txt"], _json_check(thm2_check)),
        ("thm4", ["bounds", "verify", "thm4", "in/lowm.txt"], _json_check(
            lambda a: gate.check_thm4(bits["lowm"], a))),
        ("table1", ["bounds", "table1"], _json_check(lambda a: gate.check_table1(a["rows"]))),
    ]
    q = [_cli_query(qid, cli + argv, workdir, env, check) for qid, argv, check in specs]
    # far over the default summand budget: must fail fast with exit 3
    q.append(_cli_query("refusal", cli + ["corr", "in/big.txt", "--k", "8"], workdir, env,
                        lambda out: None if out == "" else "refusal printed an answer",
                        expect_exit=3))
    def no_answer(out):
        return None if out == "" else "unexpected output"

    probes = [
        _cli_query("interp", ["-c", "pass"], workdir, env, no_answer),
        _cli_query("import", ["-c", "import seqmeter.cli"], workdir, env, no_answer),
    ]
    return Workload("cli-oneshot", q, probes=probes)


def build(name: str, seed: int, scale: str, workdir: Path, root: Path) -> Workload:
    if name == "kernels":
        return kernels(seed, scale)
    if name == "peak-certify":
        return peak_certify(seed, scale)
    if name == "cli-oneshot":
        return cli_oneshot(seed, scale, workdir, root)
    raise ValueError(f"unknown workload {name!r}")
