"""Child process of the benchmark: one ``monoheat`` CLI command.

    python3 perfbench/launch.py STAMPS SRC [--trace SPANS] -- <monoheat args>

Imports ``monoheat`` from ``SRC`` and runs ``monoheat.cli.main`` on the
arguments after ``--``.  It writes to ``STAMPS`` the monotonic clock
reading at the moment ``parse_config`` returns (the end of set-up); with
``--trace`` it also wraps every layer and writes the recorded spans to
``SPANS`` after the command ends.  The exit code is the command's.
"""

import json
import os
import sys
import time


def main(argv):
    split = argv.index("--")
    own, command = argv[:split], argv[split + 1:]
    stamps_path, src = own[0], os.path.abspath(own[1])
    spans_path = own[own.index("--trace") + 1] if "--trace" in own else None
    sys.path.insert(0, src)

    import monoheat
    from monoheat import cli

    if not os.path.abspath(monoheat.__file__).startswith(src + os.sep):
        print(f"monoheat imported from {monoheat.__file__}, not {src}",
              file=sys.stderr)
        return 4
    stamps = {}
    tracer = None
    if spans_path is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    parse = cli.parse_config

    def parse_and_stamp(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        finally:
            stamps["setup_end"] = time.clock_gettime(time.CLOCK_MONOTONIC)

    cli.parse_config = parse_and_stamp
    try:
        code = cli.main(command)
    finally:
        with open(stamps_path, "w", encoding="utf-8") as fh:
            json.dump(stamps, fh)
        if tracer is not None:
            tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
