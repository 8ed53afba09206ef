"""`seqmeter corr`: the order-k correlation measure, by exhaustive scan."""

import argparse

from . import EXIT_OK, _emit, _load, _usage


def add_arguments(parser: argparse.ArgumentParser, common: argparse.ArgumentParser,
                  name: str, argv: list[str]) -> None:
    parser.add_argument("file")
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--n", type=int, help="prefix length (aperiodic only)")
    parser.add_argument("--periodic", action="store_true")
    parser.add_argument("--budget", type=int, default=None, help="summand budget")
    parser.add_argument("--jobs", type=int, default=1)
    parser.set_defaults(func=cmd_corr)


def cmd_corr(args) -> int:
    from ..correlation import aperiodic_measure, periodic_measure

    seq = _load(args.file)
    if args.periodic:
        if args.n is not None:
            raise _usage("--n sets an aperiodic prefix; --periodic always uses one full period")
        result = periodic_measure(seq, args.k, budget=args.budget, jobs=args.jobs)
    else:
        result = aperiodic_measure(seq, args.k, args.n, budget=args.budget, jobs=args.jobs)
    _emit(args, result.as_dict(),
          f"order-{args.k} correlation: {result.value} ({result.classification})")
    return EXIT_OK
