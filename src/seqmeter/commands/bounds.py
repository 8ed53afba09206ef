"""`seqmeter bounds`: threshold and bound calculators, and checks of the guarantees."""

import argparse
import sys

from . import EXIT_CHECK_FAILED, EXIT_OK, _add_subcommands, _emit, _load, _usage

# subcommand -> its help line
SUBCOMMANDS = {
    "table1": "family table: periods, dimensions, thresholds",
    "thm2": "aperiodic half-peak threshold from N and L",
    "cor3": "asymptotic log formula for L, not a bound at every N; "
            "hypothesis C_j(S, N) < N/2 for every j <= K",
    "verify": "check one guarantee on a concrete sequence",
    "kerror": "complexity bound surviving bit flips",
}


def add_arguments(parser: argparse.ArgumentParser, common: argparse.ArgumentParser,
                  name: str, argv: list[str]) -> None:
    def add(sub, name, rest):
        p = sub.add_parser(name, parents=[common], help=SUBCOMMANDS[name])
        if name == "table1":
            p.add_argument("--ell-max", type=int, default=20, dest="ell_max")
            p.add_argument("--csv", action="store_true")
            p.set_defaults(func=_bounds_table1)
        elif name == "thm2":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--l", type=int, required=True)
            p.set_defaults(func=_bounds_thm2)
        elif name == "cor3":
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
            p.set_defaults(func=_bounds_cor3)
        elif name == "verify":
            p.add_argument("claim", choices=["thm1", "thm2", "thm4"])
            p.add_argument("file")
            p.add_argument("--n", type=int)
            p.add_argument("--budget", type=int, default=None)
            p.set_defaults(func=_bounds_verify)
        else:
            p.add_argument("file")
            p.add_argument("--n", type=int)
            p.add_argument("--k", type=int, default=2)
            p.add_argument("--flips", type=int, required=True)
            p.add_argument("--budget", type=int, default=None)
            p.set_defaults(func=_bounds_kerror)

    _add_subcommands(parser, "bounds_command", SUBCOMMANDS, argv, add)


def _bounds_table1(args) -> int:
    from ..thresholds import table1

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
    from ..thresholds import half_peak_threshold

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
    from ..bounds import log_complexity_bound

    try:
        value = log_complexity_bound(args.k, args.n)
    except ValueError as exc:
        raise _usage(str(exc))
    _emit(args, {"K": args.k, "N": args.n, "value": value},
          f"asymptotic log formula {value:.3f} (not a bound at every N; "
          f"hypothesis C_j(S, N) < N/2 for every j <= K)")
    return EXIT_OK


def _bounds_verify(args) -> int:
    seq = _load(args.file)
    if args.claim == "thm1":
        from ..codes import build_span, find_periodic_peak
        from ..thresholds import full_peak_threshold

        if args.n is not None:
            raise _usage("--n sets a prefix length; thm1 always checks one full period")
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
        from ..bounds import find_half_peak_witness
        from ..complexity import linear_complexity
        from ..thresholds import half_peak_threshold

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
    from ..bounds import moc_half_peak_check

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
    from ..bounds import kerror_bound

    seq = _load(args.file)
    n = seq.n if args.n is None else args.n
    report = kerror_bound(seq, n, k=args.k, flips=args.flips, budget=args.budget)
    _emit(args, report.as_dict(),
          f"complexity bound surviving {args.flips} flips: {report.value}")
    return EXIT_OK
