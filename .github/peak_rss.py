"""Run one ``bettibound`` command in this interpreter and gate its peak RSS.

    PYTHONPATH=src python .github/peak_rss.py LIMIT_MB VERB [ARG ...]

runs ``bettibound.cli.main([VERB, ARG, ...])``, prints
``exit CODE, peak RSS N MB (limit LIMIT_MB MB)`` and exits nonzero when the
command fails or the process's peak resident set (``VmHWM`` in
``/proc/self/status``, Linux only) exceeds LIMIT_MB.
"""

import re
import sys

from bettibound.cli import main


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\s+(\d+) kB", status.read()).group(1)) / 1024


if __name__ == "__main__":
    limit, *argv = sys.argv[1:]
    code = main(argv)
    peak = peak_rss_mb()
    print(f"exit {code}, peak RSS {peak:.0f} MB (limit {limit} MB)")
    sys.exit(code or peak > float(limit))
