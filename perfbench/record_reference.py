"""Regenerate query_reference.json: the answer of every query command on
every ideal the query workload can draw, as (exit code, sha256 of stdout).

The stored file was recorded from polymat 0.1.0 as first imported into
this repository; re-record only when an answer is meant to change, and
say why in the change that does it.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from polymat.cli import run  # noqa: E402

import workloads as w  # noqa: E402


def main() -> None:
    reference = {}
    for t, (_, _, prime) in enumerate(w.QUERY_TYPES):
        for n, gens in w.query_variants(t):
            for command in w.query_commands(prime):
                argv = w.query_argv(command, n, gens)
                code, stdout = w.run_cli(run, argv)
                reference[json.dumps(argv)] = {"exit": code, "sha256": w.output_digest(stdout)}
        print(f"type {t}: {w.QUERY_TYPES[t][:2]} recorded", file=sys.stderr)
    w.QUERY_REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
