"""Command-line front end.

JSON goes to stdout (keys sorted, so identical runs are byte-identical
up to the timing fields of `verify all`); human-readable notes go to
stderr.  Exit codes: 0 ok, 1 check failed, 2 usage error, 3 search
budget exceeded or memory exhausted.

Every CLI call is a new process, which compiles each module it loads
wherever bytecode is not cached.  So this module holds only the entry
point and the command table; each command's arguments and handler live
in its module under `seqmeter.commands`, and a call imports, compiles
and builds the parser of only the command it runs; the `bounds` and `gen`
groups likewise build only the subcommand invoked.  Help and usage
errors print what a parser holding every command would.  Each handler in
turn imports the modules it runs (see `seqmeter/__init__.py`).
"""

import argparse
import importlib
import sys

from . import __version__
from .budget import BudgetExceededError
from .commands import EXIT_BUDGET, EXIT_USAGE, _add_subcommands, _env_budget

# command -> (its module under seqmeter.commands, its help line)
COMMANDS = {
    "gen": ("gen", "generate a reference sequence"),
    "lc": ("complexity", "lc of a sequence prefix"),
    "moc": ("complexity", "moc of a sequence prefix"),
    "kerror": ("complexity", "k-error linear complexity (exhaustive)"),
    "corr": ("corr", "order-k correlation measure, exhaustive"),
    "peaks": ("peaks", "find a full periodic peak (a least constant fold)"),
    "bounds": ("bounds", "threshold and bound calculators"),
    "verify": ("verify", "run the acceptance checks"),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`, holding the one command it names when it names a valid one.

    Only that command's module is imported and only its arguments are
    added.  For help, a missing or an unknown command, every command is
    registered with its help line, so the listing and the error are those
    of a full parser (see `commands._add_subcommands`).
    """
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

    def add(sub, name, rest):
        module, help_line = COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=help_line)
        if rest is not None:
            importlib.import_module(f".commands.{module}", __package__).add_arguments(
                p, common, name, rest)

    _add_subcommands(parser, "command", COMMANDS, argv, add)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    args.argv = list(argv)  # the manifest records the words parsed, not sys.argv
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
