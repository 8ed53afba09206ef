"""Command-line front end.

JSON goes to stdout (keys sorted, so identical runs are byte-identical
up to the timing fields of `verify all`); human-readable notes go to
stderr.  Exit codes: 0 ok, 1 check failed, 2 usage error, 3 search
budget exceeded or memory exhausted.

Each command handler imports the modules it runs, so a process loads and
compiles only those (see `seqmeter/__init__.py`).
"""

import argparse
import json
import os
import sys

from . import __version__
from .budget import DEFAULT_BUDGET, BudgetExceededError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _usage(msg: str) -> SystemExit:
    print(f"seqmeter: {msg}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _env_budget() -> int:
    raw = os.environ.get("SEQMETER_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise _usage(f"SEQMETER_BUDGET must be an integer, got {raw!r}")


def _manifest(args) -> dict:
    return {
        "argv": sys.argv[1:],
        "version": __version__,
        "budget": getattr(args, "budget", None),
        "jobs": getattr(args, "jobs", None),
        "seed": getattr(args, "seed", None),
    }


def _emit(args, payload: dict, human: str | None = None) -> None:
    payload = dict(payload)
    payload["manifest"] = _manifest(args)
    json.dump(payload, sys.stdout, sort_keys=True, default=str)
    sys.stdout.write("\n")
    if human and not args.quiet:
        print(human, file=sys.stderr)


def _load(path: str):
    from .bitseq import load

    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise _usage(f"cannot read {path}: {exc}")


def _parse_hex(text: str, what: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise _usage(f"{what} must be hexadecimal, got {text!r}")


def cmd_gen(args) -> int:
    from .bitseq import dumps, save
    from .generators import (
        HallSpec,
        LfsrSpec,
        default_lfsr_spec,
        fermat_threshold,
        gold_sequence,
        hall_sextic,
        m_sequence,
        small_kasami,
    )

    if args.kind == "msequence":
        if args.taps is not None:
            spec = LfsrSpec.from_masks(args.ell, _parse_hex(args.taps, "--taps"),
                                       _parse_hex(args.seed_state, "--seed") if args.seed_state else 1)
        else:
            spec = default_lfsr_spec(args.ell)
        seq = m_sequence(spec, periods=args.periods)
    elif args.kind == "gold":
        seq = gold_sequence(args.ell, shift=args.shift, periods=args.periods)
    elif args.kind == "kasami-small":
        seq = small_kasami(args.ell, shift=args.shift, periods=args.periods)
    elif args.kind == "hall":
        seq = hall_sextic(HallSpec(args.t, args.g), periods=args.periods)
    else:
        seq = fermat_threshold(args.p, periods=args.periods)
    if args.output:
        save(seq, args.output)
        if not args.quiet:
            print(f"wrote {seq.n} bits (period {seq.period}) to {args.output}",
                  file=sys.stderr)
    else:
        sys.stdout.write(dumps(seq))
    return EXIT_OK


def cmd_lc(args) -> int:
    from .complexity import linear_complexity, linear_complexity_profile

    seq = _load(args.file)
    n = seq.n if args.n is None else args.n
    if args.profile:
        prof = linear_complexity_profile(seq, n)
        payload = {"n": n, "value": prof.final, "profile": list(prof.values),
                   "coefficients": list(prof.coefficients)}
    else:
        value, coeffs = linear_complexity(seq, n)
        payload = {"n": n, "value": value, "coefficients": list(coeffs)}
    _emit(args, payload, f"linear complexity of first {n} bits: {payload['value']}")
    return EXIT_OK


def cmd_moc(args) -> int:
    from .complexity import max_order_complexity, max_order_complexity_profile

    seq = _load(args.file)
    n = seq.n if args.n is None else args.n
    if args.profile:
        prof = max_order_complexity_profile(seq, n)
        payload = {"n": n, "value": prof.final, "profile": list(prof.values)}
    else:
        payload = {"n": n, "value": max_order_complexity(seq, n)}
    _emit(args, payload, f"maximum-order complexity of first {n} bits: {payload['value']}")
    return EXIT_OK


def cmd_kerror(args) -> int:
    from .complexity import kerror_linear_complexity

    seq = _load(args.file)
    n = seq.n if args.n is None else args.n
    value = kerror_linear_complexity(seq, n, errors=args.k, budget=args.budget)
    _emit(args, {"n": n, "k": args.k, "value": value},
          f"{args.k}-error linear complexity of first {n} bits: {value}")
    return EXIT_OK


def cmd_corr(args) -> int:
    from .correlation import aperiodic_measure, periodic_measure

    seq = _load(args.file)
    if args.periodic:
        if seq.period is None:
            raise _usage("--periodic needs a declared period in the file")
        if args.n is not None:
            raise _usage("--n sets an aperiodic prefix; --periodic always uses one full period")
        result = periodic_measure(seq, args.k, budget=args.budget, jobs=args.jobs)
    else:
        result = aperiodic_measure(seq, args.k, args.n, budget=args.budget, jobs=args.jobs)
    _emit(args, result.as_dict(),
          f"order-{args.k} correlation: {result.value} ({result.classification})")
    return EXIT_OK


def cmd_peaks(args) -> int:
    from .codes import build_span, find_periodic_peak
    from .thresholds import full_peak_threshold

    seq = _load(args.file)
    if seq.period is None:
        raise _usage("peak search needs a declared period in the file")
    span = build_span(seq)
    t_max = full_peak_threshold(seq.period, span.dimension) if args.tmax is None else args.tmax
    cert = find_periodic_peak(span, t_max, budget=_env_budget(), jobs=args.jobs)
    if cert is None:
        _emit(args, {"found": False, "tmax": t_max, "dimension": span.dimension},
              f"no full peak of order <= {t_max}")
        return EXIT_OK
    payload = cert.as_dict()
    payload.update(found=True, dimension=span.dimension, tmax=t_max)
    _emit(args, payload,
          f"full peak: order {cert.order}, shifts {list(cert.shifts)}, theta = {cert.verified_value}")
    return EXIT_OK


def _bounds_table1(args) -> int:
    from .bounds import table1

    rows = table1(args.ell_max)
    if args.csv:
        import csv

        writer = csv.DictWriter(
            sys.stdout,
            fieldnames=["family", "ell", "period", "dimension", "threshold", "claimed", "matches"],
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    else:
        _emit(args, {"rows": rows}, f"{len(rows)} family rows up to degree {args.ell_max}")
    mismatches = [r for r in rows if not r["matches"]]
    if mismatches and not args.quiet:
        fams = sorted({r["family"] for r in mismatches})
        print(f"note: computed threshold differs from the claimed column for: {', '.join(fams)}",
              file=sys.stderr)
    return EXIT_OK


def _bounds_thm2(args) -> int:
    from .thresholds import half_peak_threshold

    th = half_peak_threshold(args.n, args.l)
    if th is None:
        _emit(args, {"N": args.n, "L": args.l, "fired": False},
              "no subset count reaches the state-space size; no guarantee")
    else:
        t, cap = th
        _emit(args, {"N": args.n, "L": args.l, "fired": True, "t": t, "k_max": cap},
              f"half peak guaranteed for some order 1 < k <= {cap}")
    return EXIT_OK


def _bounds_cor3(args) -> int:
    from .bounds import log_complexity_bound

    try:
        value = log_complexity_bound(args.k, args.n, args.delta)
    except ValueError as exc:
        raise _usage(str(exc))
    _emit(args, {"K": args.k, "N": args.n, "delta": args.delta, "value": value},
          f"complexity bound (up to additive constant): {value:.3f}")
    return EXIT_OK


def _bounds_verify(args) -> int:
    seq = _load(args.file)
    if args.claim == "thm1":
        from .codes import build_span, find_periodic_peak
        from .thresholds import full_peak_threshold

        if seq.period is None:
            raise _usage("this check needs a declared period")
        span = build_span(seq)
        cap = full_peak_threshold(seq.period, span.dimension)
        if cap is None:
            _emit(args, {"fired": False, "dimension": span.dimension},
                  "threshold not fired (full-rank span: the count gives no cap)")
            return EXIT_OK
        cert = find_periodic_peak(span, cap, budget=args.budget)
        ok = cert is not None
        payload = {"fired": True, "tmax": cap, "dimension": span.dimension,
                   "holds": ok}
        if ok:
            payload["certificate"] = cert.as_dict()
        _emit(args, payload, f"full-peak guarantee {'verified' if ok else 'VIOLATED'}")
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    if args.claim == "thm2":
        from .bounds import find_half_peak_witness
        from .complexity import linear_complexity
        from .thresholds import half_peak_threshold

        n = seq.n if args.n is None else args.n
        l, _ = linear_complexity(seq, n)
        th = half_peak_threshold(n, l)
        if th is None:
            _emit(args, {"fired": False, "N": n, "L": l}, "hypothesis not fired")
            return EXIT_OK
        witness = find_half_peak_witness(seq, n, th[1], budget=args.budget)
        ok = witness is not None
        payload = {"fired": True, "N": n, "L": l, "t": th[0], "k_max": th[1], "holds": ok}
        if ok:
            payload["witness"] = witness
        _emit(args, payload, f"half-peak guarantee {'verified' if ok else 'VIOLATED'}")
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    # thm4
    from .bounds import moc_half_peak_check

    n = seq.n if args.n is None else args.n
    report = moc_half_peak_check(seq, n, budget=args.budget)
    payload = report.as_dict()
    if not report.fired:
        _emit(args, payload, "hypothesis not fired")
        return EXIT_OK
    ok = 2 * report.value >= n
    _emit(args, payload, f"order-2 half-peak {'verified' if ok else 'VIOLATED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _bounds_kerror(args) -> int:
    from .bounds import kerror_bound

    seq = _load(args.file)
    n = seq.n if args.n is None else args.n
    report = kerror_bound(seq, n, k=args.k, flips=args.flips, budget=args.budget)
    _emit(args, report.as_dict(),
          f"complexity bound surviving {args.flips} flips: {report.value}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import DEFAULT_SEED, run_all

    if args.seed is None:
        args.seed = DEFAULT_SEED
    results = run_all(scale=args.scale, seed=args.seed)
    payload = {
        "scale": args.scale,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "cases": r.cases,
                "runtime_seconds": round(r.runtime, 3),
                "budget_seconds": r.budget_seconds,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    _emit(args, payload)
    if not args.quiet:
        for r in results:
            print(r.line(), file=sys.stderr)
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmeter",
        description="Pseudorandomness measures of binary sequences: "
                    "complexity profiles, correlation measures, peak certificates.",
    )
    parser.add_argument("--version", action="version", version=f"seqmeter {__version__}")
    parser.add_argument("--quiet", action="store_true", help="suppress stderr notes")
    # --quiet is also accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value set at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[common], help="generate a reference sequence")
    gen.set_defaults(func=cmd_gen)
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for kind in ("msequence", "gold", "kasami-small"):
        g = gen_sub.add_parser(kind, parents=[common])
        g.add_argument("--ell", type=int, required=True, help="register degree")
        if kind == "msequence":
            g.add_argument("--taps", help="feedback taps, hex mask of c_0..c_{ell-1}")
            g.add_argument("--seed", dest="seed_state", help="initial state, hex")
        else:
            g.add_argument("--shift", type=int, default=0)
    hall = gen_sub.add_parser("hall", parents=[common])
    hall.add_argument("--t", type=int, required=True, help="prime period, 1 mod 6")
    hall.add_argument("--g", type=int, default=None, help="primitive root (default: smallest)")
    fermat = gen_sub.add_parser("fermat", parents=[common])
    fermat.add_argument("--p", type=int, required=True, help="odd prime")
    for g in gen_sub.choices.values():
        g.add_argument("--periods", type=int, default=2, help="periods to emit (default 2)")
        g.add_argument("-o", "--output", help="output file (default: stdout)")

    for name, fn in (("lc", cmd_lc), ("moc", cmd_moc)):
        p = sub.add_parser(name, parents=[common], help=f"{name} of a sequence prefix")
        p.add_argument("file")
        p.add_argument("--n", type=int, help="prefix length (default: whole file)")
        p.add_argument("--profile", action="store_true", help="emit the whole profile")
        p.set_defaults(func=fn)

    ke = sub.add_parser("kerror", parents=[common], help="k-error linear complexity (exhaustive)")
    ke.add_argument("file")
    ke.add_argument("--n", type=int, help="prefix length (default: whole file)")
    ke.add_argument("--k", type=int, required=True, help="max bit flips")
    ke.add_argument("--budget", type=int, default=None, help="BM bit-step budget")
    ke.set_defaults(func=cmd_kerror)

    corr = sub.add_parser("corr", parents=[common], help="order-k correlation measure, exhaustive")
    corr.add_argument("file")
    corr.add_argument("--k", type=int, required=True)
    corr.add_argument("--n", type=int, help="prefix length (aperiodic only)")
    corr.add_argument("--periodic", action="store_true")
    corr.add_argument("--budget", type=int, default=None, help="summand budget")
    corr.add_argument("--jobs", type=int, default=1)
    corr.set_defaults(func=cmd_corr)

    peaks = sub.add_parser("peaks", parents=[common], help="find a full periodic peak (a least constant fold)")
    peaks.add_argument("file")
    peaks.add_argument("--tmax", type=int, default=None,
                       help="weight cap (default: the sphere-packing threshold; none at full rank)")
    peaks.add_argument("--jobs", type=int, default=1)
    peaks.set_defaults(func=cmd_peaks)

    bounds = sub.add_parser("bounds", parents=[common], help="threshold and bound calculators")
    bsub = bounds.add_subparsers(dest="bounds_command", required=True)
    bt = bsub.add_parser("table1", parents=[common], help="family table: periods, dimensions, thresholds")
    bt.add_argument("--ell-max", type=int, default=20, dest="ell_max")
    bt.add_argument("--csv", action="store_true")
    bt.set_defaults(func=_bounds_table1)
    b2 = bsub.add_parser("thm2", parents=[common], help="aperiodic half-peak threshold from N and L")
    b2.add_argument("--n", type=int, required=True)
    b2.add_argument("--l", type=int, required=True)
    b2.set_defaults(func=_bounds_thm2)
    b3 = bsub.add_parser("cor3", parents=[common], help="logarithmic complexity bound from an order cap")
    b3.add_argument("--k", type=int, required=True)
    b3.add_argument("--n", type=int, required=True)
    b3.add_argument("--delta", type=float, default=0.0)
    b3.set_defaults(func=_bounds_cor3)
    bv = bsub.add_parser("verify", parents=[common], help="check one guarantee on a concrete sequence")
    bv.add_argument("claim", choices=["thm1", "thm2", "thm4"])
    bv.add_argument("file")
    bv.add_argument("--n", type=int)
    bv.add_argument("--budget", type=int, default=None)
    bv.set_defaults(func=_bounds_verify)
    bk = bsub.add_parser("kerror", parents=[common], help="complexity bound surviving bit flips")
    bk.add_argument("file")
    bk.add_argument("--n", type=int)
    bk.add_argument("--k", type=int, default=2)
    bk.add_argument("--flips", type=int, required=True)
    bk.add_argument("--budget", type=int, default=None)
    bk.set_defaults(func=_bounds_kerror)

    ver = sub.add_parser("verify", parents=[common], help="run the acceptance checks")
    vsub = ver.add_subparsers(dest="verify_command", required=True)
    va = vsub.add_parser("all", parents=[common])
    va.add_argument("--scale", choices=["quick", "full"], default="quick")
    va.add_argument("--seed", type=int, default=None)
    va.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", None) is None and hasattr(args, "budget"):
        args.budget = _env_budget()
    # The budgets price work, not memory, so a search they let through can
    # still run out of it.  While its MemoryError unwinds, the generators it
    # was looping over are closed with memory still full, and each failed
    # close would print its own traceback through the unraisable hook.
    hook = sys.unraisablehook
    sys.unraisablehook = lambda u: None if issubclass(u.exc_type, MemoryError) else hook(u)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"seqmeter: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("seqmeter: search ran out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except SystemExit:
        raise
    except ValueError as exc:
        print(f"seqmeter: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.unraisablehook = hook


if __name__ == "__main__":
    sys.exit(main())
