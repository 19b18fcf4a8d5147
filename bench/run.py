"""designbench benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload design-session --seed 0 --seconds 35 --trace 0

The run builds the workload's request list from ``--seed`` (set up
several times; ``setup_s`` is the import time plus the median set-up,
both calibrated as below), then replays the list in whole passes for
about ``--seconds``.  Each request starts only after the previous one
returned.  Every output of the first pass is checked against the
benchmark's own references; later passes must repeat its bytes exactly.

Shared hosts switch each CPU between full speed and a mode up to 40%
slower within milliseconds, and sometimes slow both for minutes.  So
before a request the process moves to whichever of its CPUs runs fastest
just then (``CpuPicker``), and a fixed calibration loop (``_probe``) is
timed right before the request, right after it and every 5 ms while it
runs (``Calibrator``).  A replay's latency is calibrated: its time
scaled by ``REFERENCE_PROBE_S`` over the loop's time pooled over all
those iterations, so it reads as on a CPU that runs the loop in exactly
1 ms.  A request's latency is the mean of the faster half of its
calibrated replays over the passes.  The loop is benchmark code that a
change to the program leaves alone, so the scale moves only with the
host.  ``req_per_s`` is requests per second over the sum of those
latencies.  ``fail_ratio`` (failed over attempted requests) is printed;
the JSON line carries it as ``failed`` and ``attempted``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends
half the time untraced and half with the span recorder installed, and
reports per-function calls, total and self time, derived ratios and the
tracing overhead; its outputs must equal the untraced ones.  Spans are
written to ``.bench_work/spans-<workload>.tsv``.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
#: Calibrated latencies read as on a CPU that runs ``_probe`` in this time.
REFERENCE_PROBE_S = 0.001
PROBE_ITERATIONS = 12000

#: sha256 of the first pass's outputs at the default seed.  A change to
#: the program that alters any output byte shows here.
DEFAULT_SEED = 0
PINNED = {
    "design-session": "7edae0b192ec4b2dc5a84952da0e3c1738fbfea72d3bb2f957fce210d17e1a13",
    "grammar-generate": "7efffbef7db3bd0591115b0d350861d6e61cc6b79dcd5bde87d7134ce8105316",
    "synth-search": "686fba364d1c70c2894f13275365969fae1903348183da5fbfe21563c6bce153",
}

PARSERS = ("funcstruct.parse_structure", "novelty.parse_design_instance",
           "grammar.parse_grammar", "synth.parse_requirement", "synth.parse_topology")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("design-session", "grammar-generate", "synth-search"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "designbench" / "__init__.py").is_file() \
            or not (ROOT / "fixtures").is_dir():
        print(f"error: no designbench sources and fixtures under {ROOT}", file=sys.stderr)
        return 2

    print_environment(args)
    sys.path.insert(0, str(ROOT / "src"))
    cpus = CpuPicker()
    calibrator = Calibrator()
    try:
        cpus.pick(force=True)
        import_s = calibrator.run(lambda: importlib.import_module("designbench.cli"))[2] / 1e9

        import workloads

        workload = workloads.WORKLOADS[args.workload](ROOT, WORKDIR)
        setups = []
        for _ in range(SETUP_REPEATS):
            cpus.pick(force=True)
            setups.append(calibrator.run(lambda: workload.setup(args.seed))[2] / 1e9)
        setup_s = import_s + statistics.median(setups)
        print(f"set-up, calibrated: import {import_s:.4g} s; workload set-up "
              f"{', '.join(f'{t:.4g}' for t in setups)} s")
        return report(args, workload, Runner(workload, cpus, calibrator), setup_s)
    finally:
        calibrator.close()
        cpus.close()


def report(args, workload, runner: "Runner", setup_s: float) -> int:
    harness: list[str] = []
    if args.trace == 0:
        plain = runner.measure(args.seconds)
        traced = recorder = None
    else:
        from spans import Recorder

        plain = runner.measure(args.seconds / 2)
        recorder = Recorder()
        recorder.install()
        try:
            traced = runner.measure(args.seconds / 2, recorder)
        finally:
            recorder.restore()
        harness += [f"not restored: {name}" for name in recorder.unrestored()]
        if traced.digest != plain.digest:
            harness.append("traced outputs differ from untraced outputs")
        WORKDIR.mkdir(exist_ok=True)
        recorder.write(WORKDIR / f"spans-{args.workload}.tsv")
    if args.seed == DEFAULT_SEED and plain.digest != PINNED[args.workload]:
        harness.append(f"output digest {plain.digest} != pinned {PINNED[args.workload]}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = [plain] if traced is None else [plain, traced]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)

    print(f"workload {workload.name}: {workload.why}")
    probes = runner.cpus.chosen
    if probes:
        print(f"cpu probe loop on the chosen CPU: median {statistics.median(probes) * 1e6:.0f} "
              f"us, fastest {min(probes) * 1e6:.0f} us over {len(probes)} probes")
    print(f"calibration loop around and inside a request: median "
          f"{statistics.median(runner.calibrator.history) * 1e6:.0f} us; latencies are scaled to "
          f"{REFERENCE_PROBE_S * 1e6:.0f} us; median of the uncalibrated fastest "
          f"latencies {statistics.median(plain.raw_best()) / 1e6:.4g} ms")
    print(f"requests per pass {len(workload.requests)}; passes {plain.passes}; "
          f"output digest {plain.digest}")
    for problem in [p for r in runs for p in r.problems][:10] + harness:
        print(f"FAILED: {problem}")
    print(f"fail_ratio = {failed / attempted:.6f} ({failed} of {attempted} requests)")

    if traced is None:
        tail_p, tail_ms = plain.tail()
        metrics = {
            "req_per_s": (plain.per_second(), "1/s"),
            "req_p50_ms": (statistics.median(plain.best()) / 1e6, "ms"),
            "req_tail_ms": (tail_ms, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"a request's latency is the mean of the faster half of its {plain.passes} "
              f"calibrated replays; "
              f"req_tail_ms is their p{tail_p:.2f} ({len(workload.requests)} requests, "
              f"10 beyond it)")
    else:
        metrics = layer_metrics(recorder, traced, plain, harness)
        print(f"spans {len(recorder)}; exceptions {recorder.errors()}")
        print("spans stop at public functions: private helpers such as "
              "synth._search_assignment count in their caller's self_s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not harness,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


class Result:
    def __init__(self, per_pass: int):
        self.per_pass = per_pass
        self.latencies: list[list[int]] = []  # ns, one list per pass
        self.calibrated: list[list[float]] = []  # ns, one list per pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = ""

    @property
    def passes(self) -> int:
        return len(self.latencies)

    def best(self) -> list[float]:
        """Each request's latency in ns: the mean of the faster half of
        its calibrated replays over the passes."""
        best = []
        for replays in zip(*self.calibrated):
            best.append(statistics.fmean(sorted(replays)[:max(1, len(replays) // 2)]))
        return best

    def raw_best(self) -> list[int]:
        """Each request's fastest uncalibrated latency over the passes, in ns."""
        return [min(column) for column in zip(*self.latencies)]

    def per_second(self) -> float:
        return self.per_pass / (sum(self.best()) / 1e9)

    def tail(self) -> tuple[float, float]:
        """The eleventh-slowest latency, in ms, and its percentile: the
        highest one that leaves ten requests of a pass beyond it."""
        return 100 * (1 - 10 / self.per_pass), sorted(self.best())[-11] / 1e6


class CpuPicker:
    """Keeps the process on whichever of its CPUs currently runs fastest.

    On shared hosts each virtual CPU alternates, every few seconds, between
    full speed and a mode up to 40% slower, independently of the other
    one.  Before a request, at most every ``INTERVAL`` seconds, a 1 ms
    probe loop is timed on each allowed CPU and the process is pinned to
    the fastest.  Only this process's affinity changes; it is restored by
    ``close``.
    """

    INTERVAL = 0.2

    def __init__(self):
        self.allowed = os.sched_getaffinity(0)
        self.cpus = sorted(self.allowed)
        self.last = -math.inf
        self.chosen: list[float] = []

    def pick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if len(self.cpus) < 2 or (now - self.last < self.INTERVAL and not force):
            return
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((min(_probe() for _ in range(2)), cpu))
        os.sched_setaffinity(0, {min(timings)[1]})
        self.chosen.append(min(timings)[0])
        self.last = time.perf_counter()

    def close(self) -> None:
        os.sched_setaffinity(0, self.allowed)


class Calibrator:
    """Times the calibration loop right before and right after a piece of
    work and, from a timer signal, every ``INTERVAL`` seconds while it
    runs.  The loop inside the work is ``SAMPLE_ITERATIONS`` long, about 1%
    of the work's time, and its time is taken out of the work's time.
    ``close`` stops the timer and puts the previous handler back."""

    INTERVAL = 0.005
    SAMPLE_ITERATIONS = 600

    def __init__(self):
        self.active = False
        self.samples: list[float] = []
        self.sampled_ns = 0
        self.history: list[float] = []  # s, pooled loop time of each work
        self.previous = signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        if self.active:
            start = time.perf_counter_ns()
            self.samples.append(_probe(self.SAMPLE_ITERATIONS))
            self.sampled_ns += time.perf_counter_ns() - start

    def run(self, work):
        """Runs ``work()``; returns its result, its time in ns and that
        time calibrated, in ns."""
        before = _probe()
        self.samples, self.sampled_ns, self.active = [], 0, True
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        start = time.perf_counter_ns()
        try:
            result = work()
        finally:
            elapsed = time.perf_counter_ns() - start
            self.active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        # Loop time per PROBE_ITERATIONS, pooled over all iterations run.
        share = self.SAMPLE_ITERATIONS / PROBE_ITERATIONS
        loop = (before + _probe() + share * sum(self.samples)) / (2 + share * len(self.samples))
        self.history.append(loop)
        return result, elapsed, (elapsed - self.sampled_ns) * REFERENCE_PROBE_S / loop

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def _probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Time of the calibration loop, in s per ``PROBE_ITERATIONS`` iterations."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return (time.perf_counter() - start) * PROBE_ITERATIONS / iterations


class Runner:
    """Closed loop over whole passes; checks the first pass it ever runs
    and compares every later pass with it byte for byte."""

    def __init__(self, workload, cpus: CpuPicker, calibrator: Calibrator):
        self.workload = workload
        self.cpus = cpus
        self.calibrator = calibrator
        self.reference: list[tuple[int, bytes]] | None = None
        self.bad: set[int] = set()

    def measure(self, seconds: float, recorder=None) -> Result:
        """Whole passes until another one would overrun ``seconds`` by
        more than half a pass."""
        workload = self.workload
        result = Result(len(workload.requests))
        started = time.perf_counter()
        while True:
            workload.begin_pass()
            digest = hashlib.sha256()
            latencies: list[int] = []
            calibrated: list[float] = []
            outputs: list[tuple[int, bytes]] = []
            for i, request in enumerate(workload.requests):
                if recorder is not None:
                    recorder.current_request = result.passes * result.per_pass + i
                self.cpus.pick()
                code, output, problems = self._one(request, result, latencies, calibrated)
                if self.reference is None:
                    problems = problems or self._check(request, code, output)
                    outputs.append((code, output))
                    if problems:
                        self.bad.add(i)
                elif (code, output) != self.reference[i]:
                    problems = problems or ["output differs from the first pass"]
                elif i in self.bad:
                    problems = ["same output as the failed first pass"]
                if problems:
                    result.failed += 1
                    result.problems.append(f"request {i}: " + "; ".join(problems))
                digest.update(f"{code}\n{len(output)}\n".encode())
                digest.update(output)
            if self.reference is None:
                self.reference = outputs
            result.latencies.append(latencies)
            result.calibrated.append(calibrated)
            result.digest = result.digest or digest.hexdigest()
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / result.passes / 2 >= seconds:
                return result

    def _check(self, request, code, output) -> list[str]:
        try:
            return self.workload.check(request, code, output)
        except Exception:  # malformed output fails the request
            return [traceback.format_exc(limit=3)]

    def _one(self, request, result: Result, latencies: list[int], calibrated: list[float]):
        result.attempted += 1

        def attempt():
            try:
                return self.workload.run(request), None
            except Exception:  # a traceback is a failed request, not a failed run
                return None, traceback.format_exc(limit=3)

        (reply, error), elapsed, scaled = self.calibrator.run(attempt)
        latencies.append(elapsed)
        calibrated.append(scaled)
        if error is not None:
            return None, b"", [error]
        code, payload = reply
        return code, self.workload.output(request, payload), []


def layer_metrics(recorder, traced: Result, plain: Result, harness: list[str]) -> dict:
    functions = recorder.per_function()
    metrics = {}
    for name, entry in functions.items():
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.total_s"] = (entry["total_ns"] / 1e9, "s")
        metrics[f"{name}.self_s"] = (entry["self_ns"] / 1e9, "s")

    self_ns = sum(entry["self_ns"] for entry in functions.values())
    busy_ns = sum(map(sum, traced.latencies))
    if self_ns != recorder.root_ns() or self_ns > busy_ns:
        harness.append(f"self times {self_ns} ns do not add up to the root spans "
                       f"{recorder.root_ns()} ns within the traced {busy_ns} ns")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics.update({
        "grammar.apply.dangling_rejects": (
            recorder.errors().get("grammar.apply:DanglingEdgeError", 0), "count"),
        "grammar.new_design_ratio": (
            ratio(functions["grammar.design_to_dict"]["calls"],
                  functions["grammar.canonical_form"]["calls"]), "ratio"),
        "casebase.cases_per_retrieve": (
            ratio(functions["casebase.similarity"]["calls"],
                  functions["casebase.retrieve"]["calls"]), "ratio"),
        "funcstruct.pi_per_similarity": (
            ratio(recorder.count("funcstruct.interdependency_index", "casebase.similarity"),
                  functions["casebase.similarity"]["calls"]), "ratio"),
        "synth.sat_ratio": (
            ratio(functions["synth.circuit_to_dict"]["calls"],
                  functions["synth.parse_requirement"]["calls"]), "ratio"),
        "cli.ingress_share": (
            ratio(sum(functions[p]["total_ns"] for p in PARSERS),
                  functions["cli.run"]["total_ns"]), "ratio"),
        "trace.overhead_ratio": (ratio(traced.per_second(), plain.per_second()), "ratio"),
        "trace.coverage": (ratio(self_ns, busy_ns), "ratio"),
    })
    return metrics


def print_environment(args) -> None:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    print(f"python {platform.python_version()}; nproc {len(os.sched_getaffinity(0))}; "
          f"cpu {cpu}; seed {args.seed}; seconds {args.seconds:g}; trace {args.trace}; "
          f"commit {git_commit()}")


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
