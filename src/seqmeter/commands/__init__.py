"""The CLI's commands, one module per command group.

Each module holds its commands' argument setup next to their handlers:
add_arguments(parser, name) adds the arguments of the one (sub)command
name.  A group (`bounds`, `gen`, `verify`) also declares SUBCOMMANDS,
each subcommand's help line or None, and DEST, the attribute that holds
the one invoked.  `seqmeter.cli` imports only the module of the command
it runs and builds its parser with `_add_subcommands`, the one walk that
finds an invoked (sub)command.  The other helpers below are shared by
every command.  Command modules import them from here, never from
`seqmeter.cli`: under `python -m seqmeter.cli` that module runs as
`__main__`, so importing it by name would compile and run it a second
time.
"""

import argparse
import json
import os
import sys

from .. import __version__
from ..budget import DEFAULT_BUDGET

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _add_subcommands(parser: argparse.ArgumentParser, dest: str, names: dict, argv: list[str],
                     start: int) -> tuple[int, argparse.ArgumentParser] | None:
    """Add parser's subcommands for argv[start:]; return the invoked one's index and parser.

    names maps each subcommand to its help line, or to None for none (a
    help of None would still list it).  The invoked one is the first word
    from start not starting with "-" (no option here takes a value), and
    None is returned when it is not one of names.  argparse hands a `--`
    before it to the subparsers action, which rejects it as a choice, so
    a `--` directly before it is deleted from argv when it is the only
    one there; any other `--` is left to argparse.  When every word
    before the invoked one is a long option other than help, it alone is
    added, and the action's metavar spells every name, so usage lines
    read as they would with all added.  Otherwise (help, a missing or
    unknown subcommand, or a word argparse may read as positional) every
    name is added with no metavar, so help listings and the messages
    that name the action by its dest are argparse's own.  Each subparser
    also accepts --quiet, hidden from its help; its SUPPRESS default keeps
    it from clobbering a value set at the top level.  The caller adds the
    invoked one's arguments.
    """
    i = next((i for i in range(start, len(argv)) if not argv[i].startswith("-")), len(argv))
    invoked = argv[i] if i < len(argv) and argv[i] in names else None
    if invoked is not None and argv[start:i].count("--") == 1 and argv[i - 1] == "--":
        del argv[i - 1]
        i -= 1
    alone = invoked is not None and all(
        word.startswith("--") and word != "--" and not word.startswith("--h")
        for word in argv[start:i])
    sub = parser.add_subparsers(dest=dest, required=True,
                                metavar="{" + ",".join(names) + "}" if alone else None)
    for name in [invoked] if alone else names:
        kwargs = {} if names[name] is None else {"help": names[name]}
        sub.add_parser(name, **kwargs).add_argument(
            "--quiet", action="store_true", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    return None if invoked is None else (i, sub.choices[invoked])


def _env_budget() -> int:
    raw = os.environ.get("SEQMETER_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SEQMETER_BUDGET must be an integer, got {raw!r}")


def _manifest(args) -> dict:
    return {
        "argv": args.argv,
        "version": __version__,
        "budget": getattr(args, "budget", None),
        "jobs": getattr(args, "jobs", None),
        "seed": getattr(args, "seed", None),
    }


def _emit(args, payload: dict, human: str | None = None) -> None:
    payload = dict(payload)
    payload["manifest"] = _manifest(args)
    sys.stdout.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
    if human and not args.quiet:
        print(human, file=sys.stderr)


def _load(args):
    """The sequence in args.file and its prefix length args.n, checked by `bitseq._data_n`."""
    from ..bitseq import _data_n, load

    try:
        seq = load(args.file)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {args.file}: {exc}")
    return seq, _data_n(seq, getattr(args, "n", None))[1]


def _parse_hex(text: str, what: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise ValueError(f"{what} must be hexadecimal, got {text!r}")
