"""The argparse parser that relext.cli built for every command line.

cli now reads a well-formed argv off its one table of verbs, positionals
and options, and builds argparse's parser from that table only for the
argv it declines.  The tests compare both with this parser, written as cli
wrote it: the namespace of every argv that the table's exact parse accepts,
and the help and usage-error text of the others.
"""

import argparse


def parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="relext",
        description="bound quiver algebras, their degree 0/1 Hochschild "
        "cohomology, and partial relation extensions",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, algebra_arg=True):
        p.add_argument("file", help="presentation file")
        if algebra_arg:
            p.add_argument("algebra", help="algebra name within the file")
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--field", default=None, help="field override: Q or F<p>")

    p = sub.add_parser("info", help="dimensions and structural predicates")
    common(p)

    p = sub.add_parser("hh", help="cohomology with coefficients in the algebra")
    common(p)
    p.add_argument("--degree", choices=("0", "1", "both"), default="both")
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("hcoh", help="cohomology with arrow-ideal coefficients")
    common(p)
    p.add_argument("--arrows", required=True, help="comma-separated arrow names")
    p.add_argument("--degree", choices=("0", "1", "both"), default="both")
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("verify", help="verify the extension identities")
    common(p, algebra_arg=False)
    p.add_argument("--base", required=True, help="base algebra name")
    p.add_argument("--tilde", required=True, help="full extension algebra name")
    p.add_argument(
        "--split",
        default=None,
        help="comma-separated new arrows of the partial extension "
        "(default: all declared new arrows)",
    )

    p = sub.add_parser("poset", help="poset of partial extensions")
    common(p, algebra_arg=False)
    p.add_argument("--base", required=True)
    p.add_argument("--tilde", required=True)

    p = sub.add_parser("ext2", help="second self-extension dimension")
    common(p)

    p = sub.add_parser("cup", help="cup-product checks in degree 1")
    common(p)
    return top
