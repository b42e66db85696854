"""posheaf benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload resolve-gf2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  The run builds the workload's seeded input pool several
times (``setup_s`` is the median build), computes the reference results
untimed, runs one untimed warm-up pass, then whole timed passes over the pool
for about ``--seconds``.  ``gc.collect()`` runs before each job, outside the
timed region, and every job's result is checked; a mismatch or exception
counts as a failed job and the run goes on.

Times are reported at a reference host speed.  On a shared 2-vCPU host the
same job swings by 20-40% as neighbouring tenants load the machine, and CPU
time swings with wall time.  ``HostClock`` samples a small fixed
pure-Python kernel, independent of posheaf, every 0.1 s during each timed
region and rescales the region's time to a host on which the kernel takes
``REFERENCE_KERNEL_S``.  The raw wall times are printed beside the scaled
ones.

With ``--trace 0`` the last stdout line is the JSON report of the end-to-end
metrics.  With ``--trace 1`` the passes alternate untraced and traced, the
per-layer metrics are per-job means over the traced passes, and the spans are
written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
REFERENCE_KERNEL_S = 0.003
SAMPLE_EVERY_S = 0.1
END_TO_END = (("setup_s", "s"), ("job_s_p50", "s"), ("jobs_per_s", "1/s"), ("peak_rss_mb", "MB"))


class HostClock:
    """Times a region in wall seconds and at the reference host speed.

    While the region runs, SIGALRM fires every ``SAMPLE_EVERY_S`` and the
    handler times one run of a small fixed GF(3) sparse elimination written
    here, independent of posheaf; one more sample is taken just before and
    just after the region.  The handler's own time is subtracted from the
    region, and the rest is multiplied by ``REFERENCE_KERNEL_S`` over the
    mean sample.
    """

    def __init__(self):
        rng = random.Random(0)
        self._rows = [{rng.randrange(160): rng.randrange(1, 3) for _ in range(3)} for _ in range(160)]
        self._samples: list[float] = []
        self._sampler_s = 0.0
        self.kernel_times: list[float] = []

    def _kernel(self) -> None:
        start = time.perf_counter()
        pivots: dict[int, dict[int, int]] = {}
        for row in self._rows:
            current = dict(row)
            while current:
                lead = min(current)
                pivot = pivots.get(lead)
                if pivot is None:
                    inv = current[lead]  # 1 and 2 are their own inverses mod 3
                    pivots[lead] = {j: (v * inv) % 3 for j, v in current.items()}
                    break
                f = current[lead]
                for j, v in pivot.items():
                    new = (current.get(j, 0) - f * v) % 3
                    if new:
                        current[j] = new
                    else:
                        current.pop(j, None)
        seconds = time.perf_counter() - start
        self._samples.append(seconds)
        self.kernel_times.append(seconds)

    def _on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection here would belong to the region
        try:
            self._kernel()
        finally:
            if enabled:
                gc.enable()
        self._sampler_s += time.perf_counter() - start

    def timed(self, fn, *args):
        """(result, wall seconds, scaled seconds); gc runs before the call."""
        self._samples = []
        self._sampler_s = 0.0
        self._kernel()
        gc.collect()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start - self._sampler_s
            signal.signal(signal.SIGALRM, previous)
        self._kernel()
        return result, wall, wall * REFERENCE_KERNEL_S / statistics.fmean(self._samples)


def attempt(job, check, item, ref, clock: HostClock) -> tuple[float, float, bool]:
    """Run one job and check its result: (wall s, scaled s, passed)."""

    def guarded():
        try:
            return job(item), True
        except Exception:
            traceback.print_exc()
            return None, False

    (result, ran), wall, scaled = clock.timed(guarded)
    if not ran:
        return wall, scaled, False
    try:
        return wall, scaled, bool(check(ref, result))
    except Exception:
        traceback.print_exc()
        return wall, scaled, False


def percentile_line(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n <= 10:
        return f"tail percentile: none has ten samples beyond it ({n} samples)"
    i = n - 11
    return f"tail percentile: p{100 * (i + 1) // n} = {sorted(times)[i]:.4f} s ({n} samples, 10 beyond)"


def _fmt(times) -> str:
    return " ".join(f"{t:.4f}" for t in times)


def run(workload, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    clock = HostClock()
    setup_wall, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        inputs, wall, scaled = clock.timed(workload.build, seed, workdir)
        setup_wall.append(wall)
        setup_scaled.append(scaled)
    ref_start = time.perf_counter()
    refs = [workload.reference(item) for item in inputs]
    ref_s = time.perf_counter() - ref_start

    warm_start = time.perf_counter()
    warm = [attempt(workload.job, workload.check, item, ref, clock) for item, ref in zip(inputs, refs)]
    warm_pass = time.perf_counter() - warm_start
    passes = max(2 if traced else 1, round(seconds / warm_pass))

    if traced:
        import spans

        recorder = spans.Recorder()
        recorder.install()
        traced_job = lambda item: recorder.run_job(workload.job, item)  # noqa: E731

    plain, traced_runs = [], []  # (wall s, scaled s, passed) per job
    for k in range(passes):
        on = traced and k % 2 == 1
        for item, ref in zip(inputs, refs):
            outcome = attempt(traced_job if on else workload.job, workload.check, item, ref, clock)
            (traced_runs if on else plain).append(outcome)

    jobs = warm + plain + traced_runs
    failed = sum(not ok for _w, _s, ok in jobs)
    wall = [w for w, _s, _ok in plain]
    scaled = [s for _w, s, _ok in plain]
    job_p50 = statistics.median(scaled)
    lines = [
        f"workload {workload.name}: seed {seed}, pool {len(inputs)}, {passes} passes, "
        f"{len(jobs)} jobs checked (warm-up included), {failed} failed",
        f"untimed: reference results {ref_s:.2f} s, warm-up pass {warm_pass:.2f} s",
        f"calibration kernel: median {statistics.median(clock.kernel_times):.4f} s "
        f"over {len(clock.kernel_times)} runs (reference {REFERENCE_KERNEL_S} s)",
        f"setup builds, wall s: {_fmt(setup_wall)}",
        f"setup builds, scaled s: {_fmt(setup_scaled)}",
        f"jobs, wall s: {_fmt(wall)} (median {statistics.median(wall):.4f})",
        f"jobs, scaled s: {_fmt(scaled)}",
        percentile_line(scaled),
    ]
    if traced:
        recorder.uninstall()
        traced_scaled = [s for _w, s, _ok in traced_runs]
        lines.append(f"traced jobs, wall s: {_fmt(w for w, _s, _ok in traced_runs)}")
        lines.append(f"traced jobs, scaled s: {_fmt(traced_scaled)}")
        metrics = recorder.metrics(job_p50, statistics.median(traced_scaled))
        if recorder.absent:
            lines.append("absent bindings (reported as zero): " + ", ".join(recorder.absent))
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv"
        recorder.write_spans(spans_path)
        lines.append(f"{len(recorder.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        values = (
            statistics.median(setup_scaled),
            job_p50,
            sum(ok for _w, _s, ok in plain) / sum(scaled),
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        metrics = {name: {"value": v, "unit": unit} for (name, unit), v in zip(END_TO_END, values)}
    for name, metric in metrics.items():
        lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
    return {
        "lines": lines,
        "report": {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "posheaf" / "__init__.py").is_file():
        print(f"error: no posheaf sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["report"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
