"""`seqmeter gen`: write a reference sequence."""

import argparse
import sys

from . import EXIT_OK, _add_subcommands, _parse_hex

KINDS = ("msequence", "gold", "kasami-small", "hall", "fermat")


def add_arguments(parser: argparse.ArgumentParser, common: argparse.ArgumentParser,
                  name: str, argv: list[str]) -> None:
    parser.set_defaults(func=cmd_gen)

    def add(sub, kind, rest):
        g = sub.add_parser(kind, parents=[common])
        if kind == "hall":
            g.add_argument("--t", type=int, required=True, help="prime period, 1 mod 6")
            g.add_argument("--g", type=int, default=None, help="primitive root (default: smallest)")
        elif kind == "fermat":
            g.add_argument("--p", type=int, required=True, help="odd prime")
        else:
            g.add_argument("--ell", type=int, required=True, help="register degree")
            if kind == "msequence":
                g.add_argument("--taps", help="feedback taps, hex mask of c_0..c_{ell-1}")
                g.add_argument("--seed", dest="seed_state", help="initial state, hex")
            else:
                g.add_argument("--shift", type=int, default=0)
        g.add_argument("--periods", type=int, default=2, help="periods to emit (default 2)")
        g.add_argument("-o", "--output", help="output file (default: stdout)")

    _add_subcommands(parser, "kind", KINDS, argv, add)


def cmd_gen(args) -> int:
    from ..bitseq import dumps, save
    from ..generators import (
        fermat_threshold,
        gold_sequence,
        hall_sextic,
        m_sequence,
        small_kasami,
    )

    if args.kind == "msequence":
        taps = _parse_hex(args.taps, "--taps") if args.taps is not None else None
        seed = _parse_hex(args.seed_state, "--seed") if args.seed_state is not None else 1
        seq = m_sequence(args.ell, taps, seed, periods=args.periods)
    elif args.kind == "gold":
        seq = gold_sequence(args.ell, shift=args.shift, periods=args.periods)
    elif args.kind == "kasami-small":
        seq = small_kasami(args.ell, shift=args.shift, periods=args.periods)
    elif args.kind == "hall":
        seq = hall_sextic(args.t, args.g, periods=args.periods)
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
