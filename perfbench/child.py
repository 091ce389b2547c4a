"""One ``casimir-harmonic`` request in a fresh interpreter.

    python3 perfbench/child.py [--trace FILE] -- <cli arguments>

Runs the package's console entry point ``casimir_harmonic.cli:main`` from
the checkout's ``src/``, exactly as the installed ``casimir-harmonic``
script would, and exits with its code.  The request's stdout and stderr
pass through; one extra line goes to stderr last, prefixed ``PERFBENCH ``,
with the import time, the time inside ``main``, the peak RSS and, with
``--trace``, the tracer's aggregates (the spans go to FILE).
"""

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main():
    argv = sys.argv[1:]
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    start = time.perf_counter()
    import casimir_harmonic.cli as cli
    import_s = time.perf_counter() - start

    tracer = None
    if trace_path:
        import tracer as tracing
        tracer = tracing.install()
        tracer.op_id = 0

    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:     # argparse rejects a request this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:             # what the console script would print
        traceback.print_exc()
        code = 1
    main_s = time.perf_counter() - start
    sys.stdout.flush()

    info = {"import_s": import_s, "main_s": main_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.dump(trace_path)
        info["trace"] = tracer.snapshot()
    sys.stderr.write("\nPERFBENCH " + json.dumps(info) + "\n")
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
