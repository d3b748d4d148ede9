"""Run one ``labelcal`` command line the way the console script does,
inside an address-space cap that applies to this process only.

    python3 launch.py SRC CAP_BYTES TRACE_FILE PASS_ID -- ARGS...

SRC is the package's source directory.  TRACE_FILE is ``-`` for an
untraced run; otherwise the import is timed, the package is traced, and
the spans are written to TRACE_FILE when the command exits.
"""

import resource
import sys
import time


def main() -> None:
    src, cap, trace_file, pass_id, sep, *args = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: launch.py SRC CAP_BYTES TRACE_FILE PASS_ID -- ARGS...")
    resource.setrlimit(resource.RLIMIT_AS, (int(cap), int(cap)))
    sys.path.insert(0, src)
    sys.argv = ["labelcal", *args]
    if trace_file == "-":
        from labelcal.cli import main as cli_main

        cli_main()
        return

    import tracer

    started = time.perf_counter()
    import labelcal.cli

    import_s = time.perf_counter() - started
    spans = tracer.Tracer(int(pass_id))
    spans.install()
    try:
        labelcal.cli.main()
    finally:
        spans.dump(trace_file, args[0], import_s)


if __name__ == "__main__":
    main()
