"""Regenerate ``cli_outputs.json``, the golden stdout of the command line.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each case writes a fixture's map document (``icss fixtures``) to a file and
records the exit status and the ``--format json`` stdout of one command on
it.  ``tests/test_golden.py`` replays every case and compares byte for
byte.  The file pins what the program prints, so regenerating it changes
what counts as correct: a regeneration must be justified in CHANGES.md,
naming the outputs that changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from icss.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_outputs.json"
NAMED = ["identity", "fold", "double_cover", "figure_eight", "disc_to_rp2"]
RANDOM_SEEDS = range(10)


def cases() -> list:
    """(fixture, seed, command arguments) for every recorded run."""
    maps = [(name, None) for name in NAMED] + [("random", s) for s in RANDOM_SEEDS]
    out = [
        (name, seed, [command])
        for name, seed in maps
        for command in ("icss", "gvzss", "verify", "homology")
    ]
    out += [
        (name, None, ["build", "--kind", kind, "--k", str(k)])
        for name in NAMED
        for kind in ("W", "D")
        for k in range(1, 5)
    ]
    return out


def run(argv) -> tuple:
    """Exit status and stdout of ``icss`` called with argv."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(argv)
    return status, buf.getvalue()


def document(name, seed) -> str:
    """The map document ``icss fixtures`` prints for the fixture."""
    argv = ["fixtures", name] + ([] if seed is None else ["--seed", str(seed)])
    return run(argv)[1]


def replay(name, seed, args, directory) -> tuple:
    """Exit status and stdout of one case, its map written under directory."""
    path = os.path.join(directory, f"{name}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document(name, seed))
    command, *options = args
    return run(["--format", "json", command, path, *options])


def main_regenerate() -> int:
    records = []
    with tempfile.TemporaryDirectory() as directory:
        for name, seed, args in cases():
            status, stdout = replay(name, seed, args, directory)
            records.append(
                {"fixture": name, "seed": seed, "args": args, "exit": status, "stdout": stdout}
            )
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(records)} cases to {GOLDEN}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_regenerate())
