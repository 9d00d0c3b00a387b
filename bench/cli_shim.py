"""Traced entry to the supgof CLI: ``python3 bench/cli_shim.py SPANS_OUT <cli args...>``.

Times the import of ``scipy.stats`` and of ``supgof.cli``, runs ``main`` with
every public supgof function wrapped, writes the spans to SPANS_OUT as JSON
and exits with the CLI's own exit code.  Output is byte-identical to
``python3 -m supgof.cli <cli args...>``.
"""

import json
import sys

from spans import IMPORT, Recorder, Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    outer = rec.begin("cli.import", IMPORT)
    inner = rec.begin("cli.import.scipy_stats", IMPORT)
    import scipy.stats  # noqa: F401  (the largest single import of the CLI)
    rec.end(inner)
    import supgof.cli
    rec.end(outer)
    with Tracer(rec):
        code = supgof.cli.main(argv)
    idx = rec.begin("cli.flush", "cli")
    sys.stdout.flush()
    rec.end(idx)
    with open(out_path, "w") as fh:
        json.dump(rec.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
