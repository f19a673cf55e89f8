"""Run one chigad CLI command in this process and record how it went.

    python3 child.py RECORD.json TRACE CMD [chigad args...]

TRACE 0 installs only the end-to-end hooks (train start and end, the start of
every forward pass); TRACE 1 installs every layer hook.  The record holds the
runner start time, the time `import chigad.cli` took, the spans and counts,
and the library versions, and is written when the command returns.
"""

import time

RUNNER_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _library_info() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: v for k, v in os.environ.items()
                             if k.endswith("_NUM_THREADS")},
    }


def main() -> int:
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t = time.perf_counter()
    import chigad.cli
    import_s = time.perf_counter() - t

    from tracer import Tracer
    tracer = Tracer()
    tracer.install(layers=trace)
    code = 1
    try:
        code = chigad.cli.main(argv)
    finally:
        doc = {"runner_start": RUNNER_START, "import_s": import_s, "exit": code,
               "chigad_file": chigad.cli.__file__, "env": _library_info()}
        doc.update(tracer.record())
        with open(record_path, "w") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
