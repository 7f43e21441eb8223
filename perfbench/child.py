"""Child-process entry points of the benchmark, one per subcommand.

Started by ``benchlib.start_child`` with the checkout's ``src`` on
``PYTHONPATH``; results travel back as pickle frames on stdout::

    child.py load-client PORT EXPONENT   # serve-live load generator (commands on stdin)
    child.py pack-cross-section PATH     # classify-bulk set-up
    child.py classify-repetition BLOB WORKDIR REP SEED  # classify-bulk timed repetition
    child.py oracle SEED KIND:SLOT ...   # classify-bulk streaming oracles
    child.py traced-repro OUT SPANS ARG… # repro-cold traced psl-repro run
"""

from __future__ import annotations

import os
import sys

from benchlib import receive, send


def main(argv: list[str]) -> int:
    command, args = argv[0], argv[1:]
    # Unbuffered, so select() on stdin sees every frame the parent sent.
    stdin, stdout = os.fdopen(0, "rb", buffering=0), sys.stdout.buffer
    if command == "load-client":
        from load_client import serve_commands

        population = receive(stdin)
        serve_commands(stdin, stdout, int(args[0]), population, float(args[1]))
    elif command == "pack-cross-section":
        from classify_bulk import pack_cross_section

        pack_cross_section(args[0])
    elif command == "classify-repetition":
        from classify_bulk import timed_repetition

        blob, workdir, rep, seed = args
        send(stdout, timed_repetition(blob, workdir, int(rep), int(seed)))
    elif command == "oracle":
        from classify_bulk import oracle

        seed = int(args[0])
        for task in args[1:]:
            kind, slot = task.split(":")
            send(stdout, oracle((kind, int(slot), seed)))
    elif command == "traced-repro":
        from repro_cold import traced_cli

        send(stdout, traced_cli(args[2:], args[0], args[1]))
    else:
        print(f"child.py: unknown command {command!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
