"""One measured pass of CLI operations, run in a fresh interpreter.

Protocol, over the standard streams:
  1. After importing ``neighborly.cli`` and selecting the default kernel,
     print one JSON line naming the kernel.  The parent times the interval
     from spawning this process to that line as set-up time.
  2. Read one JSON job from stdin: {"ops": [argv, ...], "trace": bool}.
  3. Run each argv through ``neighborly.cli.main`` in order, capturing its
     exit code, stdout, stderr, wall and CPU seconds, and print one JSON
     result.  An empty ops list asks for set-up time alone.

Every result carries calibration times: a fixed loop, independent of the
package, timed next to the measured work.  Other tenants of a shared machine
slow both alike, so the parent reports times relative to it.  In an untraced
pass a timer signal also runs the loop every CALIBRATE_EVERY_S while an
operation runs; the time the loop takes is subtracted from the operation's.
"""

from __future__ import annotations

import bisect
import io
import json
import resource
import signal
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter, process_time

CALIBRATION_ITERATIONS = 70_000
CALIBRATE_EVERY_S = 0.25
_SCRATCH = bytearray(1 << 20)


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work that does not use neighborly.

    Small-integer bit operations, scattered updates of a 1 MB buffer and a
    2048-bit integer rebuilt at every step (as the adjacency rows and the
    kernel's bit sets are), so it slows down under contention from other
    processes roughly as the CLI does.  It allocates nothing that outlives a
    loop step, so it leaves peak RSS alone.
    """
    buf = _SCRATCH
    start = perf_counter()
    acc = row = 0
    for i in range(CALIBRATION_ITERATIONS):
        x = (i * 2654435761) & 0xFFFFF
        acc += (x ^ (x >> 7)).bit_count()
        buf[x] = (buf[x] + 1) & 0xFF
        row |= 1 << (x & 2047)
    return perf_counter() - start


class Calibrator:
    """Calibration samples (time, loop seconds) and the time spent taking them."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0  # wall seconds inside sample()
        self.spent_cpu = 0.0

    def sample(self, *_signal_args) -> None:
        start, cpu = perf_counter(), process_time()
        self.samples.append((start, calibrate()))
        self.spent += perf_counter() - start
        self.spent_cpu += process_time() - cpu
        if self.timed and _signal_args:
            signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S)

    def __enter__(self) -> "Calibrator":
        calibrate()  # the first run in a process also pays for page faults
        self.sample()
        self.sample()
        if self.timed:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def at_start(self) -> float:
        """Loop time right after start-up, for scaling the set-up time."""
        return statistics.fmean(s for _, s in self.samples[:2])

    def around(self, start: float, end: float) -> float:
        """Mean loop time over [start, end] and the nearest sample on each side."""
        times = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(times, start) - 1, 0)
        hi = bisect.bisect_right(times, end) + 1
        return statistics.fmean(s for _, s in self.samples[lo:hi])


def run_op(main, argv: list[str], cal: Calibrator) -> dict:
    out, err = io.StringIO(), io.StringIO()
    spent, spent_cpu = cal.spent, cal.spent_cpu
    cpu = process_time()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the pass goes on; the oracle counts this op as failed
            traceback.print_exc()
            code = None
    end = perf_counter()
    cpu_end = process_time()
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "seconds": end - start - (cal.spent - spent),
        "cpu_s": cpu_end - cpu - (cal.spent_cpu - spent_cpu),
        "span": (start, end),
    }


def main() -> int:
    import neighborly
    import neighborly.cli as cli
    from neighborly.search import _kernel

    impl = _kernel.get_kernel("auto")
    stdout = sys.stdout
    stdout.write(json.dumps({
        "kernel": impl.KERNEL_NAME,
        "have_compiled": bool(_kernel.HAVE_COMPILED),
        "package": neighborly.__file__,
    }) + "\n")
    stdout.flush()

    job = json.load(sys.stdin)
    if not job["ops"]:  # a set-up measurement
        with Calibrator(timed=False) as cal:
            pass
        json.dump({"setup_calib_s": cal.at_start()}, stdout)
        stdout.flush()
        return 0
    tracer = None
    cli_main = cli.main
    if job["trace"]:  # spans would count the timer's calibrations as layer time
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, cli)
        cli_main = tracer.wrap("cli.self", cli.main)

    with Calibrator(timed=tracer is None) as cal:
        ops = [run_op(cli_main, argv, cal) for argv in job["ops"]]
    for res in ops:
        res["calib_s"] = cal.around(*res.pop("span"))
    result = {
        "ops": ops,
        "setup_calib_s": cal.at_start(),
        "wall_s": sum(res["seconds"] for res in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counts"] = tracer.exact_counts()
    json.dump(result, stdout)
    stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
