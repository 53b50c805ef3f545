"""Run one foggame CLI command in a fresh interpreter, as a user would.

    python3 perfbench/child.py [--trace SPANS.json] -- <cli arguments>

Needs `src` on PYTHONPATH.  Just before `foggame.cli.main` is entered the
child writes `perfbench-enter <time.monotonic()>` to stderr; the parent
reads it to split process wall time into set-up and run.  CLOCK_MONOTONIC
is shared by all processes on Linux, so the two clocks agree.  On the way
out it writes `perfbench-peak-rss-kib <VmHWM>`.  With
--trace the public functions of the package are wrapped in spans first
(see tracer.py) and the aggregated spans are written to SPANS.json on exit.
"""

import os
import sys
import time

import foggame.cli


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: child.py [--trace SPANS.json] -- <cli arguments>", file=sys.stderr)
        return 1
    argv = argv[1:]
    spans = None
    if trace_path is not None:
        import tracer

        spans = tracer.install()
    os.write(2, f"perfbench-enter {time.monotonic()!r}\n".encode())
    try:
        return foggame.cli.main(argv)
    finally:
        if spans is not None:
            spans.write(trace_path)
        os.write(2, f"perfbench-peak-rss-kib {_peak_rss_kib()}\n".encode())


def _peak_rss_kib() -> int:
    """This process's peak RSS since exec (VmHWM).

    os.wait4's ru_maxrss is no use here: Linux carries the forking parent's
    high-water mark across execve into the child's figure, so it reports
    the size of the benchmark's own process whenever that is the larger.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return -1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
