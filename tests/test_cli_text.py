"""The CLI's help, usage and error text, byte for byte.

A call builds the parser of its own command only, but help, a missing
command and an unknown command must still print what a parser holding
every command prints.  argparse wraps help to the terminal width, so
the width is pinned to 80 columns.
"""

import pytest

from test_cli import run

USAGE = """\
usage: seqmeter [-h] [--version] [--quiet]
                {gen,lc,moc,kerror,corr,peaks,bounds,verify} ...
"""

HELP = USAGE + """
Pseudorandomness measures of binary sequences: complexity profiles,
correlation measures, peak certificates.

positional arguments:
  {gen,lc,moc,kerror,corr,peaks,bounds,verify}
    gen                 generate a reference sequence
    lc                  lc of a sequence prefix
    moc                 moc of a sequence prefix
    kerror              k-error linear complexity (exhaustive)
    corr                order-k correlation measure, exhaustive
    peaks               find a full periodic peak (a least constant fold)
    bounds              threshold and bound calculators
    verify              run the acceptance checks

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
  --quiet               suppress stderr notes
"""

BOUNDS_USAGE = "usage: seqmeter bounds [-h] {table1,thm2,cor3,verify,kerror} ...\n"

BOUNDS_HELP = BOUNDS_USAGE + """
positional arguments:
  {table1,thm2,cor3,verify,kerror}
    table1              family table: periods, dimensions, thresholds
    thm2                aperiodic half-peak threshold from N and L
    cor3                asymptotic log formula for L, not a bound at every N;
                        hypothesis C_j(S, N) < N/2 for every j <= K
    verify              check one guarantee on a concrete sequence
    kerror              complexity bound surviving bit flips

options:
  -h, --help            show this help message and exit
"""

GEN_USAGE = "usage: seqmeter gen [-h] {msequence,gold,kasami-small,hall,fermat} ...\n"

# argv -> (exit code, stdout, stderr)
TEXT = {
    "": (2, "", USAGE + "seqmeter: error: the following arguments are required: command\n"),
    "bogus": (2, "", USAGE + "seqmeter: error: argument command: invalid choice: 'bogus' "
              "(choose from 'gen', 'lc', 'moc', 'kerror', 'corr', 'peaks', 'bounds', 'verify')\n"),
    "--help": (0, HELP, ""),
    "--help lc": (0, HELP, ""),
    "--he lc": (0, HELP, ""),  # an abbreviated --help before the command still lists them all
    # argparse reads a word of one "-", or "-" and digits, as the command
    "-5 lc seq.txt": (2, "", USAGE + "seqmeter: error: argument command: invalid choice: '-5' "
                      "(choose from 'gen', 'lc', 'moc', 'kerror', 'corr', 'peaks', 'bounds', 'verify')\n"),
    "--quiet lc seq.txt --bogus": (2, "", USAGE + "seqmeter: error: unrecognized arguments: --bogus\n"),
    "bounds": (2, "", BOUNDS_USAGE + "seqmeter bounds: error: the following arguments are required: "
               "bounds_command\n"),
    "bounds bogus": (2, "", BOUNDS_USAGE + "seqmeter bounds: error: argument bounds_command: "
                     "invalid choice: 'bogus' "
                     "(choose from 'table1', 'thm2', 'cor3', 'verify', 'kerror')\n"),
    "bounds --help verify": (0, BOUNDS_HELP, ""),
    "bounds - table1": (2, "", BOUNDS_USAGE + "seqmeter bounds: error: argument bounds_command: "
                        "invalid choice: '-' "
                        "(choose from 'table1', 'thm2', 'cor3', 'verify', 'kerror')\n"),
    "gen": (2, "", GEN_USAGE + "seqmeter gen: error: the following arguments are required: kind\n"),
    "gen bogus": (2, "", GEN_USAGE + "seqmeter gen: error: argument kind: invalid choice: 'bogus' "
                  "(choose from 'msequence', 'gold', 'kasami-small', 'hall', 'fermat')\n"),
}


@pytest.mark.parametrize("argv", TEXT, ids=lambda argv: argv or "no-command")
def test_cli_text(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv.split(), capsys) == TEXT[argv]
