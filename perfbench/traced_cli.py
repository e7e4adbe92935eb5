"""Run one ``ransomflow`` CLI command with the layer tracer installed.

Usage: ``python3 perfbench/traced_cli.py SPANS.json <ransomflow arguments>``.
The exit code is the CLI's; the spans and counts are written to SPANS.json
when the command ends, also when it fails.
"""

import sys

from tracer import Tracer, install


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from ransomflow import cli

    tracer = Tracer()
    _, missing = install(tracer)
    if missing:
        print("tracer: not found in this program: " + ", ".join(missing),
              file=sys.stderr)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
