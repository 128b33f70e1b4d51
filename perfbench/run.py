"""uavplan benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
./src, never from an installed copy.  Human-readable report lines come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 measures the end-to-end metrics: the workload's pool of cases is
replayed back to back (at least one full pass, then until S seconds are
spent), each output is checked in full the first time its case runs and must
repeat exactly afterwards; set-up and most workloads' times are reported at
reference speed (REF_S below).  --trace 1 runs each case once untraced and
once with the layer boundaries wrapped, and reports the per-layer metrics
plus the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

# BLAS/OpenMP pools: a single client gains nothing from them on these problem
# sizes, and idle spinning threads add run-to-run noise.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# numpy, and with it any BLAS pool, is imported only after _cap_threads() ran.

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_REPEATS = 200

# The shared hosts this runs on change speed by up to 1.8x in phases of
# seconds to a minute, for every process alike, so a plain wall time says more
# about the neighbours than about the program.  Set-up, and the loop of each
# workload whose `at_reference_speed` is set, are therefore reported at
# reference speed: a fixed task that uses none of the program's code is timed
# between program calls (at most every PROBE_EVERY_S, for about PROBE_SHARE
# of the time), and each call's wall time is multiplied by REF_S / (median of
# the reference times taken within WINDOW_S of the call, and of at least
# MIN_PROBES).  REF_S is the task's median time (of REF_CALLS calls) on the
# 2-vCPU Intel Xeon host this was tuned on, so the figures read close to wall
# times on that host.
REF_S = 0.0015
REF_CALLS = 3
WINDOW_S = 5.0
MIN_PROBES = 15
PROBE_EVERY_S = 0.1
PROBE_SHARE = 0.02


def _cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return nproc


def _import_program(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "uavplan", "__init__.py")):
        raise SystemExit(f"perfbench: no uavplan sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import uavplan

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(uavplan.__file__)) != os.path.join(os.path.abspath(src), "uavplan"):
        raise SystemExit(f"perfbench: imported uavplan from {uavplan.__file__}, not from {src}")
    return import_s


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args, nproc: int, import_s: float) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(os.getcwd()),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "import_s": import_s,
    }


class HostSpeed:
    """The reference task, timed between program calls (see REF_S)."""

    def __init__(self):
        import numpy

        self.np = numpy
        self.counts = dict.fromkeys(range(257), 0)
        table = numpy.random.default_rng(0).uniform(0.0, 1.0, (20, 50))
        table[:, :20] += 20.0 * numpy.eye(20)  # diagonally dominant: pivots stay tame
        self.table = table
        self.times: list[float] = []  # when each probe ended
        self.samples: list[float] = []  # what it measured
        for _ in range(20):  # warm-up
            self._task()

    def _task(self) -> None:
        # The kinds of work the heuristic, the MILP text and the evaluator do:
        # interpreter loops over dicts, small-array numpy calls, and building
        # and splitting LP-like text.  One dict, reused, and no other
        # garbage-collected allocations, so the time does not depend on the
        # program's heap.
        counts = self.counts
        for i in range(3000):
            k = (i * 7919) % 257
            counts[k] = (counts[k] + i) & 0xFFFF
        np = self.np
        a = self.table.copy()
        for r in range(a.shape[0]):
            a[r] /= a[r, r]
            col = a[:, r].copy()
            col[r] = 0.0
            a -= np.outer(col, a[r])
            int(np.argmin(a[:, -1]))
        n = 0
        for line in "\n".join([f" + 1.5 x_{i}_{i % 7} - 2 y_{i}" for i in range(400)]).splitlines():
            for tok in line.split():
                n += tok[0] == "x"

    def probe(self) -> None:
        times = []
        for _ in range(REF_CALLS):
            t0 = time.perf_counter()
            self._task()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))
        self.times.append(time.perf_counter())

    def after_call(self) -> None:
        """Probe unless the last probe is more recent than PROBE_EVERY_S;
        after a long call, keep probing for PROBE_SHARE of the time since the
        last probe, so long calls get as many probes as many short ones."""
        since = time.perf_counter() - self.times[-1] if self.times else PROBE_EVERY_S
        if since < PROBE_EVERY_S:
            return
        end = time.perf_counter() + PROBE_SHARE * since
        self.probe()
        while time.perf_counter() < end:
            self.probe()

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the median reference time within WINDOW_S of [t0, t1],
        widened to the MIN_PROBES probes nearest the call where the window
        holds fewer (long calls are probed only at their ends)."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi - lo < MIN_PROBES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_PROBES // 2, len(self.times) - MIN_PROBES))
            hi = lo + MIN_PROBES
        return REF_S / statistics.median(self.samples[lo:hi])


class Laps:
    """Times the program calls of one operation; benchmark glue stays outside.
    With a HostSpeed the reference is probed after the calls (the traced run
    has none: its spans must not cover the reference)."""

    def __init__(self, speed: HostSpeed | None = None):
        self.calls: list[tuple[str, float, float]] = []
        self.op_s = 0.0
        self.speed = speed

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            if self.speed is not None:
                self.speed.after_call()
            self.calls.append((name, t0, t1))
            self.op_s += t1 - t0

    def at_reference(self, first: int = 0, last: int | None = None) -> float:
        """Summed time of calls[first:last], at reference speed if probed."""
        if self.speed is None:
            return sum(t1 - t0 for _, t0, t1 in self.calls[first:last])
        return sum((t1 - t0) * self.speed.factor(t0, t1) for _, t0, t1 in self.calls[first:last])


class Tally:
    """Outcome of a closed-loop run over a pool of cases."""

    def __init__(self, wl, cases, reference=None, speed=None):
        self.wl = wl
        self.cases = cases
        self.laps = Laps(speed)
        self.op_s: list[float] = []
        self.op_calls: list[tuple[int, int]] = []  # each operation's slice of laps.calls
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        # case index -> (fingerprint, Verdict) from the first, fully checked output
        self.verdicts = {} if reference is None else reference.verdicts

    def run_case(self, idx: int, tracer=None) -> None:
        case = self.cases[idx]
        self.attempted += 1
        before, first = self.laps.op_s, len(self.laps.calls)
        try:
            if tracer is None:
                out = self.wl.op(case, self.laps)
            else:
                with tracer.span("op"):
                    out = self.wl.op(case, self.laps)
        except Exception:  # any other exception is a failed operation, not a crash
            out = None
            self.failed += 1
            print(f"perfbench: {case.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        self.op_s.append(self.laps.op_s - before)
        self.op_calls.append((first, len(self.laps.calls)))
        if out is None:
            return
        fp = self.wl.fingerprint(out)
        if idx not in self.verdicts:
            self.verdicts[idx] = (fp, self.wl.check(case, out))
        ref_fp, verdict = self.verdicts[idx]
        if fp != ref_fp:
            self.failed += 1
            print(f"perfbench: {case.label} gave a different output on a repeat", file=sys.stderr)
        elif verdict.status == "failed":
            self.failed += 1
            print(f"perfbench: check failed: {verdict.detail}", file=sys.stderr)
        elif verdict.status == "refused":
            self.refused += 1
            if tracer is not None:
                tracer.counters["refused"] += 1


def _setup(wl, seed: int):
    """Build the inputs several times; keep the first pool, report the median
    set-up time at reference speed.  Each instance's generation is bracketed
    on its own, so long set-ups are probed often enough."""
    speed = HostSpeed()
    speed.probe()
    runs = []
    cases = None
    t_start = time.perf_counter()
    while len(runs) < SETUP_MIN_REPEATS or (
        time.perf_counter() - t_start < SETUP_MIN_SECONDS and len(runs) < SETUP_MAX_REPEATS
    ):
        lap = Laps(speed)
        pool = wl.setup(seed, lap)
        runs.append(lap)
        if cases is None:
            cases = pool
        del pool
    return cases, statistics.median(lap.at_reference() for lap in runs), len(runs)


def _freeze_heap() -> None:
    """Keep the collector from rescanning the input pool, which a user's
    process would not hold, on every full collection of the loop."""
    gc.collect()
    gc.freeze()


def _pct(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def _tail_note(n: int, q: float) -> str:
    beyond = int(n * (100 - q) / 100)
    return f"{beyond} samples beyond" + ("" if beyond >= 10 else ", fewer than 10")


def run_end_to_end(wl, seed: int, seconds: float, report):
    cases, setup_s, setups = _setup(wl, seed)
    report(f"setup: {len(cases)} cases, median of {setups} set-ups")
    _freeze_heap()
    speed = None
    if wl.at_reference_speed:
        speed = HostSpeed()
        speed.probe()
    tally = Tally(wl, cases, speed=speed)
    n = len(cases)
    i = 0
    t0 = time.perf_counter()
    while i < n or time.perf_counter() - t0 < seconds:
        tally.run_case(i % n)
        i += 1
    loop_s = time.perf_counter() - t0

    verdicts = [v for _, v in tally.verdicts.values()]
    ok = [v for v in verdicts if v.status == "ok"]
    op_s = [tally.laps.at_reference(a, b) for a, b in tally.op_calls]
    n_ops = len(op_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (_pct(op_s, 50), "s"),
        "op_s.p90": (_pct(op_s, 90), "s"),
        "ops_per_s": (n_ops / sum(op_s), "ops/s"),
        "ok_ratio": (len(ok) / n, "fraction"),
        "served_fraction": (statistics.fmean(v.quality for v in ok) if ok else 0.0, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report(
        f"loop: {n_ops} operations over {loop_s:.2f} s wall ({i / n:.2f} passes over {n} cases); "
        f"{tally.refused} refused, {tally.failed} failed; "
        f"op_s.p50 from {n_ops} samples ({_tail_note(n_ops, 50)}), "
        f"op_s.p90 ({_tail_note(n_ops, 90)})"
    )
    wall_p50 = f"wall op_s.p50 {_pct(tally.op_s, 50):.6f} s, program wall {sum(tally.op_s):.3f} s"
    if speed is None:
        report(f"reference: none, plain wall time; {wall_p50}")
    else:
        report(
            f"reference: {len(speed.samples)} probes, median {statistics.median(speed.samples):.6f} s, "
            f"REF_S {REF_S} s; speed factor {sum(op_s) / sum(tally.op_s):.4f}; {wall_p50}"
        )
    report(f"first pass: {len(ok)}/{n} cases gave a checked plan, {sum(v.status == 'refused' for v in verdicts)} refused")
    by_name = {}
    for i, (name, _, _) in enumerate(tally.laps.calls):
        by_name.setdefault(name, []).append(tally.laps.at_reference(i, i + 1))
    for name, samples in sorted(by_name.items()):
        report(f"lap {name}.p50 = {_pct(samples, 50)!r} s ({len(samples)} samples)")
        if len(samples) >= 100:
            report(f"lap {name}.p90 = {_pct(samples, 90)!r} s ({_tail_note(len(samples), 90)})")
    return tally, metrics


def run_traced(wl, seed: int, report):
    import layers
    import spans

    spans.selfcheck()
    tracer = spans.Tracer()
    tracer.install(layers.SETUP_TARGETS)
    try:
        with tracer.span("setup"):
            cases = wl.setup(seed, Laps())
    finally:
        tracer.uninstall()
    _freeze_heap()

    plain = Tally(wl, cases)
    traced = Tally(wl, cases, reference=plain)
    for idx in range(len(cases)):  # interleaved, so the host's drift hits both passes alike
        plain.run_case(idx)
        tracer.install(layers.PASS_TARGETS)
        try:
            traced.run_case(idx, tracer)
        finally:
            tracer.uninstall()

    untraced_s, traced_s = sum(plain.op_s), sum(traced.op_s)
    measured = layers.layer_metrics(tracer)
    absent = {name for name, (value, _) in measured.items() if value is None}
    metrics = {name: (0.0 if value is None else value, unit) for name, (value, unit) in measured.items()}
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")

    report(f"end-to-end, one interleaved pass over {len(cases)} cases: untraced {untraced_s:.4f} s, traced {traced_s:.4f} s")
    report(f"untraced op_s.p50 = {_pct(plain.op_s, 50):.6f} s, refused {plain.refused}, failed {plain.failed}")
    report(f"spans kept: {len(tracer.spans)}; wrapped names missing at this commit: {tracer.absent or 'none'}")
    names = {sp.id: sp.name for sp in tracer.spans}
    linkage = collections.Counter((sp.name, names.get(sp.parent, "-")) for sp in tracer.spans)
    for (name, parent), count in sorted(linkage.items()):
        report(f"span {name} under {parent}: {count}")
    for name, (value, unit) in metrics.items():
        report(f"layer {name} = {'absent' if name in absent else repr(value)} {unit}")
    for name, (calls, total, self_s) in sorted(tracer.stats.items()):
        report(f"calls {name}: n={calls} total={total:.6f} s self={self_s:.6f} s")
    attempted = plain.attempted + traced.attempted
    return attempted, plain.failed + traced.failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    nproc = _cap_threads()  # before numpy is first imported
    import_s = _import_program(os.getcwd())
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    def report(line: str) -> None:
        print(f"[{args.workload}] {line}", flush=True)

    report("env " + json.dumps(_environment(args, nproc, import_s), sort_keys=True))
    if args.trace:
        attempted, failed, metrics = run_traced(wl, args.seed, report)
    else:
        tally, metrics = run_end_to_end(wl, args.seed, args.seconds, report)
        attempted, failed = tally.attempted, tally.failed
        for name, (value, unit) in metrics.items():
            report(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
