"""The argparse reader of the command line.

``cli`` reads a command line spelled out in full itself, by
``cli._plain_args``; every other one (``--help``, an abbreviation such as
``--max-deg``, ``--opt=value``, ``--``, or a usage error) comes here, and
is read by the parser ``make_parser`` builds from the CLI's grammar table.
argparse writes every help text and usage error.  This module is imported
only then, and argparse, which loads ``gettext`` and ``locale``, with it.
No module imports ``cli`` (under ``python -m shortroots.cli`` it is
``__main__``), so the table comes in as an argument.
"""

import argparse
import contextlib
import io
import sys


def make_parser(commands):
    """The argparse parser of a grammar table such as ``cli._COMMANDS``:
    each subcommand's help, the keyword arguments of its positional
    ``system`` (None where it takes none) and its options with their
    argparse keyword arguments."""
    parser = argparse.ArgumentParser(
        prog="shortroots",
        description="exact root system combinatorics and verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, system, options) in commands.items():
        command = sub.add_parser(name, help=help_text)
        if system is not None:
            command.add_argument("system", **system)
        for option, kwargs in options.items():
            command.add_argument(option, **kwargs)
    return parser


def read(commands, argv):
    """The namespace argparse reads from argv.  Where argparse ends the run
    instead, its SystemExit goes on to the caller: code 0 once the help is
    written to stdout, 2 after a usage error written to stderr."""
    help_text = io.StringIO()   # argparse drops a write of the help that fails
    try:
        with contextlib.redirect_stdout(help_text):
            return make_parser(commands).parse_args(argv)
    finally:
        if text := help_text.getvalue():   # an empty write fails too on a full device
            sys.stdout.write(text)
