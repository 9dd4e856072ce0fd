"""One diffkern2d CLI invocation in a fresh process.

    python3 perfbench/worker.py <src dir> <result.json> <trace 0|1> [CLI args...]

Imports ``diffkern2d.cli`` from <src dir>, notes the monotonic clock once
the import is done, then runs ``cli.main(CLI args)`` and writes the
clock readings, the exit code, the process's peak RSS and, with trace 1,
the aggregated spans to <result.json>.  With no CLI args it stops after
the import: a set-up sample.  The monotonic clock is shared by all
processes, so the parent can subtract its own spawn time.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    src, result_path, trace = Path(sys.argv[1]).resolve(), sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[4:]
    sys.path.insert(0, str(src))
    import diffkern2d
    from diffkern2d import cli

    if not Path(diffkern2d.__file__).resolve().is_relative_to(src):
        print(f"diffkern2d imported from {diffkern2d.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    result = {"ready": time.monotonic()}
    if argv:
        rc, error = None, None
        start = time.monotonic()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:   # a crash is reported and counted as a failed invocation
            error = traceback.format_exc()
        result.update(start=start, end=time.monotonic(), rc=rc, error=error,
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            result["trace"] = tracer.summary()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
