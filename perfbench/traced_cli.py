"""Run ``confmetric`` with the benchmark's layer wrappers installed.

    python3 perfbench/traced_cli.py SPANS.csv ABSENT.txt -- solve a.mesh ...

Writes every span to SPANS.csv and the targets it could not wrap, one a
line, to ABSENT.txt, then exits with the command's own exit code.
"""

import sys

import confmetric.cli
from tracer import Tracer, write_spans


def main() -> int:
    spans_path, absent_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    tracer.install()
    try:
        return confmetric.cli.main(argv)
    finally:
        tracer.restore()
        write_spans(tracer.spans, spans_path)
        with open(absent_path, "w") as fh:
            fh.writelines(name + "\n" for name in tracer.absent)


if __name__ == "__main__":
    sys.exit(main())
