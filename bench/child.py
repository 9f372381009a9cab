"""Child entry point: the ``ldscreen`` command line with a host-speed sampler.

    python3 bench/child.py SAMPLES_FILE [ldscreen arguments ...]

Imports ``ldscreen.cli`` and runs its ``main`` on the arguments, as the
``ldscreen`` console script does.  Once the import is done, and until
``main`` returns, a timer signal fires every ``SAMPLE_EVERY_S`` of wall
time and runs ``reference_unit`` once, a fixed piece of pure-Python work
that belongs to the benchmark, and records how long it took.  At exit
SAMPLES_FILE gets two lines: the wall time from the end of the import to
the return of ``main`` with the process's peak resident set so far
(``VmHWM``, kB), and the sample times.  The samples' sum is the sampler's
own share of that time; their mean is how fast the host ran the process
while it ran.  See README.md, Host speed.

``VmHWM`` counts this program's memory only.  The ``ru_maxrss`` that
``os.wait4`` reports for a child also counts the parent's peak, which the
child inherits until it starts this program.
"""

import signal
import sys
from time import perf_counter

SAMPLE_EVERY_S = 0.02


def reference_unit():
    """Fixed pure-Python work: integer and float arithmetic, dict updates."""
    acc = 0.0
    counts = {}
    for i in range(5000):
        k = i % 97
        counts[k] = counts.get(k, 0) + 1
        acc += (i * 0.5) % 3.0
    return acc


def timed_unit():
    t0 = perf_counter()
    reference_unit()
    return perf_counter() - t0


def peak_rss_kb():
    """This process's peak resident set in kB, or 0 where /proc has none."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main():
    samples_file, args = sys.argv[1], sys.argv[2:]
    from ldscreen.cli import main as cli_main

    samples = []
    signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(timed_unit()))
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        return cli_main(args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        work = perf_counter() - start
        with open(samples_file, "w") as f:
            f.write(f"{work!r} {peak_rss_kb()}\n{' '.join(map(repr, samples))}\n")


if __name__ == "__main__":
    sys.exit(main())
