"""Run one ``dlq`` command with every layer traced, and write its spans:

    PYTHONPATH=src python3 bench/launch.py SPANS.json reason sub :A :B --kb x.kb

Exits with the command's exit code; stdout and stderr are the command's.
"""

import json
import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    import dlq.cli

    try:
        return dlq.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as f:
            json.dump([s.to_json() for s in tracer.spans], f)


if __name__ == "__main__":
    sys.exit(main())
