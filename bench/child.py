"""One measured bettibound CLI call in a fresh interpreter.

Usage (started by run.py, from the root of the checkout):

    python3 bench/child.py SPAWNED RESULT MODE [CLI ARGS...]

SPAWNED is the parent's ``time.monotonic()`` just before the spawn (the
clock is system wide), RESULT the JSON file this process writes, and MODE
one of ``setup`` (import only), ``plain`` (one ``cli.main`` call) or
``trace`` / ``trace-distinct`` (the same call with the layers wrapped,
the second also counting distinct eigensolver inputs).  The process
measures itself: set-up time up to the import of ``bettibound.cli``,
wall and CPU time of the call, and its own peak RSS (``VmHWM``).
"""

import json
import resource
import sys
import time


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process's own address space.

    ``ru_maxrss`` would also count the parent's pages, which stay mapped in
    the child until it executes the interpreter.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    spawned, result_path, mode, *cli_args = argv
    from bettibound import cli

    result = {"setup_s": time.monotonic() - float(spawned)}
    if mode != "setup":
        tracer = None
        if mode.startswith("trace"):
            import tracer as tracing

            tracer = tracing.install(distinct_eigh=mode == "trace-distinct")
        cpu = _cpu_s()
        started = time.perf_counter()
        result["exit"] = cli.main(cli_args)
        result["wall_s"] = time.perf_counter() - started
        result["cpu_s"] = _cpu_s() - cpu
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write_spans(result_path + ".spans")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
