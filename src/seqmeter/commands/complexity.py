"""`seqmeter lc`, `moc` and `kerror`: complexity measures of a sequence prefix."""

import argparse

from . import EXIT_OK, _emit, _load


def add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    parser.add_argument("file")
    parser.add_argument("--n", type=int, help="prefix length (default: whole file)")
    if name == "kerror":
        parser.add_argument("--k", type=int, required=True, help="max bit flips")
        parser.add_argument("--budget", type=int, default=None, help="BM bit-step budget")
        parser.set_defaults(func=cmd_kerror)
    else:
        parser.add_argument("--profile", action="store_true", help="emit the whole profile")
        parser.set_defaults(func=cmd_lc if name == "lc" else cmd_moc)


def cmd_lc(args) -> int:
    from ..complexity import linear_complexity, linear_complexity_profile

    seq, n = _load(args)
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
    from ..moc import max_order_complexity, max_order_complexity_profile

    seq, n = _load(args)
    if args.profile:
        prof = max_order_complexity_profile(seq, n)
        payload = {"n": n, "value": prof.final, "profile": list(prof.values)}
    else:
        payload = {"n": n, "value": max_order_complexity(seq, n)}
    _emit(args, payload, f"maximum-order complexity of first {n} bits: {payload['value']}")
    return EXIT_OK


def cmd_kerror(args) -> int:
    from ..complexity import kerror_linear_complexity

    seq, n = _load(args)
    value = kerror_linear_complexity(seq, n, errors=args.k, budget=args.budget)
    _emit(args, {"n": n, "k": args.k, "value": value},
          f"{args.k}-error linear complexity of first {n} bits: {value}")
    return EXIT_OK
