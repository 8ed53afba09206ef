"""`seqmeter corr`: the order-k correlation measure, by exhaustive scan."""

import argparse

from . import EXIT_OK, _emit, _load


def add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    parser.add_argument("file")
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--n", type=int, help="prefix length (aperiodic only)")
    parser.add_argument("--periodic", action="store_true")
    parser.add_argument("--budget", type=int, default=None, help="summand budget")
    parser.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    parser.set_defaults(func=cmd_corr)


def cmd_corr(args) -> int:
    from ..correlation import aperiodic_measure, periodic_measure

    if args.periodic and args.n is not None:
        raise ValueError("--n sets an aperiodic prefix; --periodic always uses one full period")
    seq, n = _load(args)
    if args.periodic:
        result = periodic_measure(seq, args.k, budget=args.budget)
    else:
        result = aperiodic_measure(seq, args.k, n, budget=args.budget)
    _emit(args, result.as_dict(),
          f"order-{args.k} correlation: {result.value} ({result.classification})")
    return EXIT_OK
