"""Replay the large tier of the byte-identity corpus (make.py).

    python tests/golden/large.py

Writes the chain and squares inputs to a temporary directory and runs every
command of large.jsonl there as a `python -m relext.cli` child under its
timeout.  Each must give the recorded exit code and sha256 of stdout and of
stderr, stay within its peak-RSS bound and hold its fields.  Prints one
line per command and exits 1 if any fails.
"""

import sys
import tempfile

import make


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        make.write_inputs(tmp, make.large_inputs())
        for entry in make.read_manifest(make.LARGE_MANIFEST):
            result = make.run_child(entry["argv"], entry["timeout"], tmp)
            bad = make.check(entry, result)
            failed += bool(bad)
            print("%-4s %6.2f s %7.1f MB  %s" % ("FAIL" if bad else "ok", result["seconds"],
                                                 result["rss_mb"], " ".join(entry["argv"])))
            for message in bad:
                print("     " + message)
            sys.stdout.flush()
    print("%d failed" % failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
