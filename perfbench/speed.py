"""Times scaled to a reference CPU speed.

The benchmark's vCPUs run at a speed that drifts by up to half again over
seconds to minutes, as other tenants load the shared host; the drift shows
equally in wall and CPU time, and each vCPU drifts on its own.  Raw times of
one run therefore spread widely from run to run however long the run.

`Sampler` pins the calling process to one CPU and starts this file as a probe
process on the same CPU.  Every `INTERVAL_S` the probe wakes and times a
fixed pure-Python loop, so it measures the speed of that CPU also while the
measured process sits in a long C call.  `scaled()` integrates a stretch of
elapsed time, each part weighted by the speed measured around it (median of
`SMOOTH` neighbouring samples), in units of `REF_LOOP_S`: the time the same
stretch would have taken on a CPU that runs the loop in exactly
`REF_LOOP_S`.  The probe takes about 1 % of the CPU, from every version of
the program alike.

    python3 perfbench/speed.py OUT     (the probe; started by Sampler)

This module imports nothing outside the standard library.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

INTERVAL_S = 0.1
PROBE_ITERATIONS = 20000
SMOOTH = 5
# One probe loop's duration on the reference CPU: the fast state of the
# 2-vCPU machine the benchmark was written on (Python 3.11).
REF_LOOP_S = 0.6e-3


def _probe() -> int:
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i
    return s


class Sampler:
    def __init__(self, out: Path):
        self.out = out
        self.proc = None
        self.ends, self.durations = [], []

    def start(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(self.out)],
            stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the speed probe did not start")

    def stop(self):
        """End the probe, wait for it and load its samples."""
        if self.proc is None:
            return
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()
        self.proc = None
        samples = json.loads(self.out.read_text())
        self.ends = [end for end, _ in samples]
        self.durations = [
            statistics.median(d for _, d in samples[max(0, i - SMOOTH // 2):
                                                   i + SMOOTH // 2 + 1])
            for i in range(len(samples))]

    def scaled(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the stretch [t0, t1] (after stop): each
        part of it is weighted by the speed of the first sample taken after
        that part, or of the last one for a tail past the last sample."""
        if not self.ends:
            raise ValueError("no speed sample was taken")
        total, start = 0.0, t0
        for end, duration in zip(self.ends, self.durations):
            if end <= t0:
                continue
            stop = min(end, t1)
            total += (stop - start) * REF_LOOP_S / duration
            start = stop
            if stop >= t1:
                return total
        return total + (t1 - start) * REF_LOOP_S / self.durations[-1]

    def median_loop_s(self) -> float:
        return statistics.median(self.durations)


def probe_main(out: Path) -> int:
    """Sample until SIGTERM or until the parent is gone; then write the
    samples, as (time the loop ended, loop duration) pairs, to `out`."""
    parent = os.getppid()
    samples = []

    def finish(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, finish)
    try:
        print("ready", flush=True)
        while os.getppid() == parent:
            t = time.perf_counter()
            _probe()
            end = time.perf_counter()
            samples.append((end, end - t))
            time.sleep(INTERVAL_S)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        out.write_text(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(probe_main(Path(sys.argv[1])))
