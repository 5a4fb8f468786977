"""One benchmark sample, run in a fresh interpreter.

    python3 child.py REPORT_JSON TRACE_RUN_ID -- VACANTLAB_ARGS...

Times ``import vacantlab.cli`` (the set-up cost every command pays), then
runs ``cli.main`` on the given arguments. With TRACE_RUN_ID >= 0 the
outside-in tracer is installed between the two and its spans go into the
report. The report also names the imported package file, so the caller can
check that the checkout's own source was measured, and the library versions.
"""

import json
import os
import sys
import time


def main() -> int:
    report_path, run_id = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    t0 = time.perf_counter()
    import vacantlab.cli as cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if run_id >= 0:
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()  # rebinds cli.main to its traced wrapper
    t1 = time.perf_counter()
    rc = cli.main(argv)
    main_s = time.perf_counter() - t1

    import numpy
    import scipy

    report = {
        "rc": rc,
        "setup_s": setup_s,
        "main_s": main_s,
        "package_file": os.path.abspath(sys.modules["vacantlab"].__file__),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "spans": tracer.dump() if tracer is not None else None,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
