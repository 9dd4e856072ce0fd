"""Run one diffkern2d command with warnings as errors and bound its peak memory.

    python .github/peak_rss.py MAX_MB EXPECTED_EXIT COMMAND [ARGS...]

runs ``python -W error -m diffkern2d COMMAND ARGS...`` in a child process,
prints its exit code and its peak resident set size (the child's
``ru_maxrss``), and exits 0 only when the child exited with EXPECTED_EXIT
and peaked at MAX_MB or less.
"""

import resource
import subprocess
import sys


def main(argv):
    max_mb, expected, args = float(argv[0]), int(argv[1]), argv[2:]
    code = subprocess.run([sys.executable, "-W", "error", "-m", "diffkern2d", *args]).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"exit {code}, peak RSS {peak:.0f} MB (at most {max_mb:.0f} MB, exit {expected} expected)")
    return int(code != expected or peak > max_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
