"""Benchmark entry point.

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.  Each run
is one fresh process with a single caller in a closed loop: the next item
starts when the previous one returns.  Whole passes over the workload's inputs
repeat until the timed work reaches --seconds.  Output checks run after each
pass, outside the timing.

--trace 0 prints the end-to-end metrics; --trace 1 first runs untraced passes,
then the same passes traced, and prints the per-layer metrics together with
the tracing overhead.  The line before the result is a JSON record of the run
(seed, input digest, commit, Python, nproc, sample counts, failures); it is
also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, crossing_count, letters_of  # noqa: E402

SETUP_SAMPLES = 9  # spread over the run: slow spells on a shared host last seconds
DIGEST_PASSES = 4
WALL_LIMIT_S = 150.0  # stop starting passes past this, whatever --seconds says
TRACED_SHARE = 2 / 3  # of --seconds, in a traced run; the rest runs untraced first

# Per-layer metrics: name -> unit.  Times are ms per pass; counts are per pass
# except the per-call means (canonical_length, burau_dim, det_degree).
PER_LAYER = {
    "garside.left_normal_form.ms": "ms",
    "garside.left_normal_form.calls": "count",
    "garside.left_normal_form.letters_in": "count",
    "garside.left_normal_form.us_per_letter": "us",
    "garside.canonical_length": "count",
    "garside.is_staircase.ms": "ms",
    "garside.is_staircase.normal_forms": "count",
    "garside.is_staircase.hit_ratio": "ratio",
    "invariants.reduced_burau.ms": "ms",
    "invariants.reduced_burau.artin_letters": "count",
    "invariants.burau_dim": "count",
    "invariants.alexander_of_closure.ms": "ms",
    "invariants.alexander_of_closure.calls": "count",
    "invariants.det_degree": "count",
    "laurent.ops": "count",
    "laurent.ms": "ms",
    "braid.parse_braid.ms": "ms",
    "braid.parse_braid.calls": "count",
    "braid.to_artin.ms": "ms",
    "braid.to_artin.letters_out": "count",
    "braid.closure_components.ms": "ms",
    "cabling.cable_staircase.ms": "ms",
    "cabling.out_letters": "count",
    "diagram.closed_braid_diagram.ms": "ms",
    "diagram.find_two_loops.ms": "ms",
    "diagram.crossings": "count",
    "diagram.regions": "count",
    "diagram.loops": "count",
    "trees.ms": "ms",
    "compose.ms": "ms",
    "surface.ms": "ms",
    "cli.verify_row.ms": "ms",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}

# Functions whose self time is reported on its own (same-module helpers they
# call are charged to them; these are not charged to their callers).
OWN_METRIC = (
    "garside.left_normal_form", "garside.is_staircase", "invariants.reduced_burau",
    "invariants.alexander_of_closure", "braid.parse_braid", "braid.to_artin",
    "braid.closure_components", "cabling.cable_staircase", "diagram.closed_braid_diagram",
    "diagram.find_two_loops", "cli.verify_row",
)


def observers(rec: spans.SpanRecorder) -> dict:
    """Counts taken from arguments and results at the layer boundaries."""

    def count(key, fn):
        return lambda args, result: rec.count(key, fn(args, result))

    return {
        "garside.left_normal_form": lambda args, nf: (
            rec.count("lnf.letters", len(args[0].letters)),
            rec.count("lnf.factors", len(nf.factors)),
        ),
        "garside.is_staircase": count("staircase.witnesses", lambda a, r: 1 if r else 0),
        "invariants.reduced_burau": lambda args, r: (
            rec.count("burau.artin_letters", crossing_count(letters_of(args[0]))),
            rec.count("burau.dim", args[0].strands - 1),
        ),
        "invariants.alexander_of_closure": count(
            "alexander.det_degree", lambda a, poly: poly.span + a[0].strands - 1),
        "braid.to_artin": count("to_artin.letters", lambda a, w: len(w.letters)),
        "cabling.cable_staircase": count("cable.letters", lambda a, w: len(w.letters)),
        "diagram.closed_braid_diagram": lambda args, d: (
            rec.count("diagram.crossings", d.crossings),
            rec.count("diagram.regions", d.regions),
        ),
        "diagram.find_two_loops": count("diagram.loops", lambda a, loops: len(loops)),
    }


def per_layer_metrics(rec: spans.SpanRecorder, passes: int, overhead: float) -> dict:
    ms = 1000.0 / passes  # seconds over the traced passes -> ms per pass

    def per_pass(x):
        return x / passes

    def mean(total, calls):
        return total / calls if calls else 0.0

    c = rec.counters.get
    lnf_calls = rec.calls_of("garside.left_normal_form")
    letters = c("lnf.letters", 0)
    normal_forms = rec.calls_under("garside.is_staircase", "garside.left_normal_form")
    burau_calls = rec.calls_of("invariants.reduced_burau")
    alex_calls = rec.calls_of("invariants.alexander_of_closure")
    laurent_ops, laurent_time = rec.module_entries("laurent")
    values = {
        "garside.left_normal_form.ms": rec.self_time("garside.left_normal_form") * ms,
        "garside.left_normal_form.calls": per_pass(lnf_calls),
        "garside.left_normal_form.letters_in": per_pass(letters),
        "garside.left_normal_form.us_per_letter":
            mean(rec.self_time("garside.left_normal_form") * 1e6, letters),
        "garside.canonical_length": mean(c("lnf.factors", 0), lnf_calls),
        "garside.is_staircase.ms": rec.self_time("garside.is_staircase") * ms,
        "garside.is_staircase.normal_forms": per_pass(normal_forms),
        "garside.is_staircase.hit_ratio": mean(c("staircase.witnesses", 0), normal_forms),
        "invariants.reduced_burau.ms": rec.self_time("invariants.reduced_burau") * ms,
        "invariants.reduced_burau.artin_letters": per_pass(c("burau.artin_letters", 0)),
        "invariants.burau_dim": mean(c("burau.dim", 0), burau_calls),
        "invariants.alexander_of_closure.ms": rec.self_time("invariants.alexander_of_closure") * ms,
        "invariants.alexander_of_closure.calls": per_pass(alex_calls),
        "invariants.det_degree": mean(c("alexander.det_degree", 0), alex_calls),
        "laurent.ops": per_pass(laurent_ops),
        "laurent.ms": laurent_time * ms,
        "braid.parse_braid.ms": rec.self_time("braid.parse_braid") * ms,
        "braid.parse_braid.calls": per_pass(rec.calls_of("braid.parse_braid")),
        "braid.to_artin.ms": rec.self_time("braid.to_artin") * ms,
        "braid.to_artin.letters_out": per_pass(c("to_artin.letters", 0)),
        "braid.closure_components.ms": rec.self_time("braid.closure_components") * ms,
        "cabling.cable_staircase.ms": rec.self_time("cabling.cable_staircase") * ms,
        "cabling.out_letters": per_pass(c("cable.letters", 0)),
        "diagram.closed_braid_diagram.ms": rec.self_time("diagram.closed_braid_diagram") * ms,
        "diagram.find_two_loops.ms": rec.self_time("diagram.find_two_loops") * ms,
        "diagram.crossings": per_pass(c("diagram.crossings", 0)),
        "diagram.regions": per_pass(c("diagram.regions", 0)),
        "diagram.loops": per_pass(c("diagram.loops", 0)),
        "trees.ms": rec.module_self_time("trees") * ms,
        "compose.ms": rec.module_self_time("compose") * ms,
        "surface.ms": rec.module_self_time("surface") * ms,
        "cli.verify_row.ms": rec.self_time("cli.verify_row") * ms,
        "trace.overhead": overhead,
        "trace.spans": per_pass(rec.total_spans),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def setup_sampler(code: str):
    """A function returning the seconds from spawning a fresh interpreter to
    its being ready for the first item."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = f"{code}\nprint('ready', flush=True)"

    def sample() -> float:
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              cwd=str(ROOT), env=env, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            status = child.wait()
        if line.strip() != "ready" or status != 0:
            raise RuntimeError(f"set-up process failed (exit {status})")
        return ready - start

    return sample


class Runner:
    """Runs whole passes, times each item, checks outputs after each pass."""

    def __init__(self, workload, wall_start: float):
        self.wl = workload
        self.wall_start = wall_start
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.untimed = {"inputs_s": 0.0, "checks_s": 0.0}

    def run(self, seconds: float, recorder=None, between=None) -> tuple[list[float], list[list[float]]]:
        """Pass times and each pass's item times.  `between(share)` runs after
        each pass, outside the timing, with the share of `seconds` measured so far."""
        pass_times: list[float] = []
        items_by_pass: list[list[float]] = []
        measured = 0.0
        k = 0
        while not pass_times or (
                measured < seconds and time.perf_counter() - self.wall_start < WALL_LIMIT_S):
            start = time.perf_counter()
            inputs = self.wl.inputs(k)
            self.untimed["inputs_s"] += time.perf_counter() - start
            state = self.wl.new_pass()
            outputs = []
            item_times = []
            if recorder is not None:
                recorder.active = True
            pass_start = time.perf_counter()
            for idx, x in enumerate(inputs):
                if recorder is not None:
                    recorder.item = k * len(inputs) + idx
                start = time.perf_counter()
                try:
                    out, error = self.wl.item(x, state), None
                except Exception as exc:  # a failed item is counted, not fatal
                    out, error = None, f"{type(exc).__name__}: {exc}"
                item_times.append(time.perf_counter() - start)
                outputs.append((out, error))
            pass_time = time.perf_counter() - pass_start
            if recorder is not None:
                recorder.active = False
            pass_times.append(pass_time)
            items_by_pass.append(item_times)
            measured += pass_time
            start = time.perf_counter()
            for x, (out, error) in zip(inputs, outputs):
                self.attempted += 1
                if error is None:
                    try:
                        error = self.wl.check(x, out)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                if error is not None:
                    self.failed += 1
                    if len(self.failures) < 5:
                        self.failures.append(error)
            self.untimed["checks_s"] += time.perf_counter() - start
            k += 1
            if between is not None:
                between(min(measured / seconds, 1.0))
        return pass_times, items_by_pass


def percentile(values, q: float) -> float:
    """The sorted value at index floor(q * n): a sample, never an average of two."""
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def pass_statistic(values: list[float], best: bool) -> float:
    """One figure for a run from one value per pass: the best, or the mean.

    Other tenants of a shared host only ever add time: its speed flips between
    fast and slow spells lasting seconds to minutes, and the share of slow
    spells in a run varies from run to run.  With many short passes, the best
    pass reads the fast speed whenever a run holds any fast spell at all
    (timeit's convention).  With few long passes, hardly any pass lies wholly
    in a fast spell and the best one is an extreme of a small sample; the mean
    moves only in proportion to the share of slow spells.  Each workload fixes
    which one it reports (`Workload.best_pass`), so that the choice stays the
    same when the program gets faster or slower.
    """
    return min(values) if best else statistics.fmean(values)


def item_percentile(items_by_pass, q: float, best: bool) -> float:
    """Item latency percentile q within each pass, combined over the passes."""
    return pass_statistic([percentile(items, q) for items in items_by_pass], best)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "espalier" / "__init__.py").is_file():
        print(f"error: no espalier package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    wall_start = time.perf_counter()
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.seed)
    import espalier
    import espalier.cli  # noqa: F401

    if Path(espalier.__file__).resolve().parent != SRC / "espalier":
        print(f"error: imported espalier from {espalier.__file__}", file=sys.stderr)
        return 2
    workload.load()
    runner = Runner(workload, wall_start)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": gen.input_digest(args.workload, args.seed, DIGEST_PASSES),
        "input_digest_passes": DIGEST_PASSES,
        "commit": git_commit(),
        "src_digest": src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if args.trace:
        plain_passes, _ = runner.run(args.seconds * (1 - TRACED_SHARE))
        rec = spans.SpanRecorder(own_metric=OWN_METRIC, transparent_modules=("laurent",))
        record["wrapped_callables"] = spans.install(rec, observers(rec))
        traced_passes, _ = runner.run(args.seconds * TRACED_SHARE, recorder=rec)
        common = min(len(plain_passes), len(traced_passes))
        overhead = sum(traced_passes[:common]) / sum(plain_passes[:common])
        metrics = per_layer_metrics(rec, len(traced_passes), overhead)
        OUT.mkdir(exist_ok=True)
        record["spans_total"] = rec.total_spans
        record["spans_written"] = rec.dump(OUT / f"spans-{args.workload}.json")
        record["passes"] = {"untraced": len(plain_passes), "traced": len(traced_passes)}
    else:
        sample = setup_sampler(workload.setup_code)
        sample()  # warm the byte-code cache; not counted
        setup = [sample()]

        def between(share):
            while len(setup) < 1 + round(share * (SETUP_SAMPLES - 1)):
                setup.append(sample())

        pass_times, items_by_pass = runner.run(args.seconds, between=between)
        between(1.0)
        best = workload.best_pass
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": pass_statistic(pass_times, best), "unit": "s"},
            "item_ms_p50": {"value": item_percentile(items_by_pass, 0.5, best) * 1000, "unit": "ms"},
            "item_ms_p90": {"value": item_percentile(items_by_pass, 0.9, best) * 1000, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        record["setup_samples_s"] = setup
        record["passes"] = len(pass_times)
        record["pass_statistic"] = "best" if best else "mean"
        record["pass_times_s"] = pass_times
        record["item_samples"] = sum(len(items) for items in items_by_pass)
        record["items_beyond_p90"] = sum(
            sum(1 for t in items if t > percentile(items, 0.9)) for items in items_by_pass)
    record["attempted"] = runner.attempted
    record["failed"] = runner.failed
    record["items_failed_ratio"] = runner.failed / runner.attempted
    record["failures"] = runner.failures
    record["untimed_s"] = runner.untimed
    record["wall_s"] = time.perf_counter() - wall_start
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": record, "metrics": metrics}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
