"""One benchmark sample: a fresh interpreter that imports bicmaps and runs main.

Usage: ``python3 -I perfbench/child.py '<json spec>'``.  The spec names the
checkout root, the parent's ``time.monotonic()`` just before it started this
process, the ``bicmaps`` argv (or null to measure set-up alone) and whether
to trace.  The child prints one JSON object: set-up seconds, run seconds,
exit code, any error, the document, its peak RSS and, when traced, the spans
and counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import bicmaps.cli
    import bicmaps.rational

    ready = time.monotonic()
    out = {"setup_s": ready - spec["spawned"]}
    if not os.path.abspath(bicmaps.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"bicmaps imported from {bicmaps.cli.__file__}, not {src}")
    out["env"] = {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2_backend": bicmaps.rational.GMPY2_BACKEND,
        "bicmaps_pure_python": bool(os.environ.get("BICMAPS_PURE_PYTHON")),
    }
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        buf = io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = bicmaps.cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a failed run is reported, not fatal to the benchmark
            error = traceback.format_exc(limit=3)
        out["run_s"] = time.perf_counter() - start
        out["code"] = code
        out["error"] = error
        out["doc"] = buf.getvalue()
        if tracer is not None:
            out["spans"] = tracer.spans()
            out["counts"] = dict(tracer.counts)
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
