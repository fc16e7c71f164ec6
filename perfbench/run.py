"""Verdict benchmark for galois_scope.

    python3 perfbench/run.py --workload {detect,smooth,corpus} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the workload runs as a closed loop with one caller for
S seconds of passes over its instance population, and the end-to-end metrics
are printed, with every time scaled to a reference host (see hostspeed.py).  With ``--trace 1`` one pass runs untraced and
then traced, and the per-layer metrics of the traced pass are printed.  Every
verdict is checked against a reference that does not come from the library.

Output: one JSON line per instance (``row``), a ``summary`` line, and as the
last line the result object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run are written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SUBPROCESSES = 6  # fresh processes timed besides this one
TAIL_ABOVE = 10
# after the first pass, an instance is called about QUANTUM_S / (its median
# time) times per pass, at most MAX_CALLS, with the calls spread over the pass,
# so that a short verdict is timed many times, at many moments of the run
QUANTUM_S = 0.2
MAX_CALLS = 40
# zero-call predictions for the timed verdicts, checked by the traced run
PREDICTED_ZERO = {
    "detect": ("groebner.groebner_basis.calls",),
    "smooth": ("polyring.transform.calls",),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("detect", "smooth", "corpus"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-reference", action="store_true",
                   help="corrupt the reference of one instance (self-test of the checks)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import galois_scope from this checkout's src/, never from elsewhere."""
    init = SRC / "galois_scope" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init.relative_to(ROOT)} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import galois_scope

    if Path(galois_scope.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: galois_scope was imported from {galois_scope.__file__}")


def build(workload: str):
    """Set-up: import the library and build the workload's instance population.

    Returns the workload, its population, and the set-up time in
    reference-host seconds and raw (see hostspeed.py).
    """
    with hostspeed.HostSpeed() as speed:
        t0 = perf_counter()
        import_library()
        import workloads

        wl = workloads.WORKLOADS[workload]
        groups = wl.build()
        t1 = perf_counter()
    raw = t1 - t0 - speed.spent
    return wl, groups, (raw * speed.factor(t0, t1), raw)


class LoopClock:
    """The timed loop's clock, which also times set-up in fresh processes.

    Host speed on a shared machine changes in stretches of seconds to minutes,
    so set-up samples taken one after another would all see the same stretch.
    The samples are due at evenly spaced moments of the loop's budget.  The
    time they take, and the time spent reading the host's speed, are left out
    of the loop's clock.
    """

    def __init__(self, args, budget, count=SETUP_SUBPROCESSES):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                    args.workload, "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        self.due = [budget * (j + 0.5) / count for j in range(count)]
        self.values = []
        self.raw = []
        self.paused = 0.0
        self.speed = hostspeed.HostSpeed()
        self.t0 = perf_counter()

    def now(self) -> float:
        """Seconds of the timed loop so far, set-up samples and speed readings left out."""
        return perf_counter() - self.t0 - self.paused - self.speed.spent

    def take_due(self, everything=False):
        """Take the samples that are due (all that are left, with `everything`)."""
        while self.due and (everything or self.now() >= self.due[0]):
            self.due.pop(0)
            t, spent = perf_counter(), self.speed.spent
            proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=150, check=True)
            sample = json.loads(proc.stdout.strip().splitlines()[-1])
            self.values.append(sample["setup_s"])
            self.raw.append(sample["setup_raw_s"])
            # readings taken meanwhile are already in speed.spent
            self.paused += perf_counter() - t - (self.speed.spent - spent)


class Sample:
    """One timed verdict call: its outcome, or the error it raised."""

    __slots__ = ("inst", "start", "end", "raw_s", "seconds", "outcome", "error", "ok")

    def __init__(self, inst, start, end, raw_s, outcome, error):
        self.inst = inst
        self.start = start
        self.end = end
        self.raw_s = raw_s
        self.seconds = raw_s  # scaled to the reference host after the loop
        self.outcome = outcome
        self.error = error
        self.ok = False

    @property
    def verdict(self) -> str:
        return self.outcome.verdict if self.error is None else f"error:{self.error}"


def pass_order(groups: list, seed: int, pass_index: int, calls: dict) -> list:
    """The calls of one pass, in a seeded order.

    Groups are shuffled as units, so each (inner, outer) pair stays together
    and a pass alternates the two kinds.  An instance with k calls is placed
    at the points (j + 1/2) / k of the pass, so repeated calls are spread out.
    """
    order = list(groups)
    random.Random(f"order:{seed}:{pass_index}").shuffle(order)
    slots = []
    for inst in (inst for group in order for inst in group):
        k = calls.get(id(inst), 1)
        slots += [((j + 0.5) / k, inst) for j in range(k)]
    slots.sort(key=lambda slot: slot[0])  # stable: ties keep the seeded order
    return [inst for _, inst in slots]


def timed_call(wl, inst, speed) -> Sample:
    """One verdict call, timed without the speed readings taken inside it."""
    spent = speed.spent
    t0 = perf_counter()
    try:
        out, err = wl.run(inst), None
    except Exception as exc:  # one instance's fault is recorded, the run goes on
        out, err = None, type(exc).__name__
    t1 = perf_counter()
    return Sample(inst, t0, t1, t1 - t0 - (speed.spent - spent), out, err)


def run_pass(wl, order, clock, stop_at=None, expected=None):
    """Call the instances in order; returns the samples.

    Set-up samples that fall due are taken between calls, off the clock.
    With a stop time, no call starts after it, and an instance whose median
    time so far would not end before it is skipped.
    """
    samples = []
    for inst in order:
        clock.take_due()
        if stop_at is not None:
            now = clock.now()
            if now >= stop_at:
                break
            if now + expected[id(inst)] > stop_at:
                continue
        samples.append(timed_call(wl, inst, clock.speed))
    return samples


def scale(samples, speed) -> float:
    """Scale each sample to the reference host; returns the scaled total."""
    for s in samples:
        s.seconds = s.raw_s * speed.factor(s.start, s.end)
    return sum(s.seconds for s in samples)


def closed_loop(wl, groups, seed, clock, budget):
    """A first whole pass, then more passes until `budget` seconds have passed.

    Every instance is timed at least once; the last pass may be cut short,
    which the per-instance medians allow.
    """
    passes, times = [], {}
    while not passes or clock.now() < budget:
        expected = {key: statistics.median(ts) for key, ts in times.items()}
        calls = {key: max(1, min(MAX_CALLS, round(QUANTUM_S / t)))
                 for key, t in expected.items()}
        order = pass_order(groups, seed, len(passes), calls)
        samples = run_pass(wl, order, clock, budget if passes else None, expected)
        if not samples:
            break  # nothing fits in the time that is left
        for s in samples:
            times.setdefault(id(s.inst), []).append(s.raw_s)
        passes.append(samples)
    clock.take_due(everything=True)
    return passes


def check_samples(wl, samples):
    """Compare every verdict with its reference; returns the failures and references."""
    refs = {}
    failed = 0
    for s in samples:
        key = id(s.inst)
        try:
            if key not in refs:
                refs[key] = wl.reference(s.inst)
            s.ok = s.error is None and wl.check(s.inst, s.outcome, refs[key])
        except Exception as exc:  # a verdict that cannot be checked is a failure
            print(json.dumps({"check_error": {"instance": s.inst.ident, "error": repr(exc)}}))
            s.ok = False
        failed += not s.ok
    return failed, refs


def tail(values):
    """The highest order statistic with TAIL_ABOVE values above it.

    Returns (value, percentile, values above).  When that statistic would not
    lie above the median, which takes more than 2 * TAIL_ABOVE values, the
    tail is the maximum, at percentile 100.
    """
    ordered = sorted(values)
    k = len(ordered) - TAIL_ABOVE - 1
    if 2 * k <= len(ordered) - 1:
        return ordered[-1], 100.0, 0
    return ordered[k], 100.0 * (k + 1) / len(ordered), TAIL_ABOVE


def by_instance(samples) -> list:
    """The samples grouped per instance, in first-seen order."""
    groups = {}
    for s in samples:
        groups.setdefault(id(s.inst), []).append(s)
    return list(groups.values())


def emit_rows(workload, samples, refs):
    for group in by_instance(samples):
        inst = group[0].inst
        verdicts = sorted({s.verdict for s in group})
        print(json.dumps({"row": {
            "workload": workload, "instance": inst.ident, "n": inst.n, "d": inst.d,
            "conductor": inst.conductor, "terms": inst.terms, "kind": inst.kind,
            "verdict": verdicts[0] if len(verdicts) == 1 else verdicts,
            "reference": refs.get(id(inst)), "ok": all(s.ok for s in group),
            "median_s": statistics.median(s.seconds for s in group),
            "median_raw_s": statistics.median(s.raw_s for s in group), "calls": len(group),
        }}))


def end_to_end(args, wl, groups, main_setup):
    """The timed loop and the end-to-end metrics.

    Every time is in reference-host seconds (see hostspeed.py).  An
    instance's time to a verdict is the median of its calls in the run, and
    every instance weighs the same: the verdict times are order statistics
    over instances, and `verdicts_per_s` is one pass over the population, each
    instance once, at those times.  So none of them depends on how often the
    loop repeated an instance or on where the last pass was cut.
    """
    clock = LoopClock(args, args.seconds)
    with clock.speed:
        passes = closed_loop(wl, groups, args.seed, clock, args.seconds)
    samples = [s for pass_samples in passes for s in pass_samples]
    timed_s = scale(samples, clock.speed)
    setup = [main_setup[0]] + clock.values
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, refs = check_samples(wl, samples)
    per_instance = [statistics.median(s.seconds for s in g) for g in by_instance(samples)]
    raw_per_instance = [statistics.median(s.raw_s for s in g) for g in by_instance(samples)]
    tail_s, tail_pct, above = tail(per_instance)
    n = len(samples)
    raw_s = sum(s.raw_s for s in samples)
    emit_rows(args.workload, samples, refs)
    print(json.dumps({"summary": {
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "samples": n, "instances": len(per_instance),
        "timed_s": timed_s, "timed_raw_s": raw_s, "calls_per_timed_raw_s": n / raw_s,
        "verdict_p50_raw_s": statistics.median(raw_per_instance),
        "verdicts_per_raw_s": len(raw_per_instance) / sum(raw_per_instance),
        "verdict_tail_percentile": tail_pct, "verdict_tail_instances_above": above,
        "failed_share": failed / n, "setup_samples_s": setup,
        "setup_samples_raw_s": [main_setup[1]] + clock.raw,
        "speed_readings": len(clock.speed.seconds),
        "speed_reading_median_s": statistics.median(clock.speed.seconds),
    }}))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_p50_s": (statistics.median(per_instance), "s"),
        "verdict_tail_s": (tail_s, "s"),
        "verdicts_per_s": (len(per_instance) / sum(per_instance), "1/s"),
        "decided_share": (sum(s.error is None and s.outcome.decided for s in samples) / n,
                          "share"),
        "correct_share": ((n - failed) / n, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return n, failed, metrics


def traced(args, workload):
    """Set-up and one pass traced, after the same pass untraced."""
    import_library()
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer()
    tracer.install()
    groups = wl.build()
    tracer.uninstall()
    setup_values = tracer.layer_values()
    if args.corrupt_reference:
        wl.corrupt(groups[0][0])
    order = pass_order(groups, args.seed, 0, {})
    clock = LoopClock(args, 0.0, count=0)
    plain = run_pass(wl, order, clock)
    tracer.reset()
    tracer.install()
    try:
        samples = run_pass(wl, order, clock)
    finally:
        tracer.uninstall()
    plain_s = sum(s.raw_s for s in plain)
    traced_s = sum(s.raw_s for s in samples)
    values = tracer.layer_values()
    failed, refs = check_samples(wl, plain + samples)
    emit_rows(workload, samples, refs)
    for name in tracing.SETUP_METRICS:
        values[name] = setup_values[name[len("setup."):]]
    values["trace.untraced_s"] = plain_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - plain_s
    for name in PREDICTED_ZERO.get(workload, ()):
        print(json.dumps({"prediction": {"metric": name, "expected": 0,
                                         "observed": values[name],
                                         "holds": values[name] == 0}}))
    print(json.dumps({"summary": {
        "workload": workload, "seed": args.seed, "samples": len(samples),
        "untraced_s": plain_s, "traced_s": traced_s, "spans": len(tracer.spans),
    }}))
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = workloads.OUT_DIR / f"trace-{workload}-{args.seed}.json"
    trace_file.write_text(json.dumps(tracer.dump()))
    metrics = {name: (value, layer_unit(name)) for name, value in values.items()}
    return len(plain) + len(samples), failed, metrics


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    return "share" if stat.endswith("_share") else "count"


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        _, _, (seconds, raw) = build(args.workload)
        print(json.dumps({"setup_s": seconds, "setup_raw_s": raw}))
        return 0
    if args.trace:
        attempted, failed, metrics = traced(args, args.workload)
    else:
        wl, groups, setup_s = build(args.workload)
        if args.corrupt_reference:
            wl.corrupt(groups[0][0])
        attempted, failed, metrics = end_to_end(args, wl, groups, setup_s)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
