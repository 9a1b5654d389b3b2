"""The m0nbar benchmark: end-to-end and per-layer metrics for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

One unit of a workload is a fixed list of steps, each run in a fresh child
process, one after another (m0nbar memoises with lru_cache, so a warm
process would hide the build cost).  A run repeats units until --seconds is
used up.  With --trace 0 it prints the end-to-end metrics: wall and CPU
time are each lap (one call, or one small group of calls, of a unit) at its
fastest over the run's units, summed; the other metrics are medians over
units or samples.  With --trace 1 it alternates plain and traced units and
prints the per-layer metrics, measured in each traced unit by one extra cold
"probe" child that calls every layer in turn with the workload's sizes.

Every child's results are checked against values the benchmark works out
itself (see checks.py).  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CHECKS, Tally, identities
from inputs import VERIFY_DEFAULT_Q, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"
DEADLINE_S = 175         # a run that is not done by then gives up without a result
SETUP_SAMPLES = 9        # at the start, then one more after every unit

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s", "pass_ratio": "ratio"}
# Counters that depend only on the code, never on the seed or the machine.
EXACT_COUNTERS = ("strata.trees_kept", "strata.orbit_configs", "keel.rows_built",
                  "keel.max_coeff_bits", "strata.distinct_count_polys", "report.identities")
COUNTER_UNITS = {"strata.enumerate_rss_mb": "MB", "report.failed": "count",
                 **{name: "count" for name in EXACT_COUNTERS}}

# Small fixed probe calls for layers a workload does not load, so that every
# per-layer metric is a real measurement on every workload.
LIGHT = {"orbit": [(4, 3)], "recurrence": [(8, 2)], "zeta_cases": [(5, 2, 3)]}


def plan(workload: str, inputs: dict):
    """(steps of one unit, arguments of the layer probe) for a workload."""
    if workload == "census":
        n, q = inputs["n"], inputs["q"]
        qs = list(VERIFY_DEFAULT_Q)
        steps = [("verify_all", {}), ("strata", inputs)]
        # the calls `verify all` makes, one layer at a time
        probe = {
            "keel_n": n + 1, "strata_n": n, "render_q": q,
            "orbit": [(m, p) for p in (2, 3, 5, 7) for m in range(3, min(7, p + 1) + 1)],
            "recurrence": [(8, p) for p in qs],
            "reads_q": qs, "orders": [8],
            "point_count": [(m, p) for p in qs + [q] for m in range(3, n + 1)],
            "zeta_cases": [(m, p, 6) for p in (2, 3) for m in range(3, 7)],
            "prime_check": qs + [q],
        }
    elif workload == "keel-deep":
        n, primes = inputs["n"], inputs["primes"]
        steps = [("keel_deep", inputs)]
        probe = {
            **LIGHT, "keel_n": n, "strata_n": 5, "render_q": 2, "reads_q": [2], "orders": [4],
            "point_count": [(n, p) for p in primes],
            "zeta_cases": [(n, p, 1) for p in primes],
            "prime_check": primes,
        }
    else:
        n, qs = inputs["n"], inputs["qs"]
        steps = [("queries", inputs)]
        probe = {
            **LIGHT, "keel_n": max(inputs["orders"]) + 1, "strata_n": n, "render_q": qs[0],
            "reads_q": qs, "orders": inputs["orders"],
            "point_count": [(m, q) for q in qs for m in range(3, n + 1)],
            "prime_check": qs,
        }
    return steps, probe


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("M0NBAR_STRATA_MAX_N", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(step: str, args: dict, traced: bool, env: dict):
    """Run one step in a fresh process: (its JSON record or None, its CPU seconds)."""
    job = json.dumps({"step": step, "args": args, "trace": int(traced)})
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with subprocess.Popen([sys.executable, str(CHILD), job], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate()
        except Overtime:
            proc.kill()
            raise
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if proc.returncode != 0:
        print("benchmark: step %s exited %d" % (step, proc.returncode), file=sys.stderr)
        return None, cpu
    return json.loads(out), cpu


def self_times(spans) -> dict:
    """Per span name: duration minus the part its child spans cover, summed."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals


def run_unit(index, steps, probe, inputs, traced, tally, env, trace_lines) -> dict:
    unit = {"traced": traced, "wall": 0.0, "peak": 0.0, "identities": [0, 0], "segments": []}
    for step, args in steps + ([("probe", probe)] if traced else []):
        record, cpu = run_child(step, args, traced, env)
        tally.check(record is not None, "step %s failed" % step)
        if record is None:
            continue
        CHECKS[step](tally, record["result"], inputs)
        for span in record["spans"]:
            trace_lines.append(dict(span, unit=index, step=step))
        if step == "probe":
            unit["layers"] = self_times(record["spans"])
            unit["counters"] = record["result"]
            continue
        unit["wall"] += record["wall_s"]
        # the step's laps, then what the child spent outside them; for CPU
        # time that includes interpreter start, import, summarising and exit
        laps = [tuple(lap) for lap in record["laps"]]
        unit["segments"] += laps + [(record["wall_s"] - sum(w for w, _ in laps),
                                     cpu - sum(c for _, c in laps))]
        unit["peak"] = max(unit["peak"], record["peak_rss_mb"])
        seen, failed = identities(step, record["result"])
        unit["identities"][0] += seen
        unit["identities"][1] += failed
    return unit


def fastest(samples) -> float:
    """Each segment at its fastest over the samples, summed; a sample maps
    segment names to seconds.  Neighbours on a shared host slow a process
    down in bursts of milliseconds whose share drifts over minutes, so the
    median of whole units follows the host; the fastest time of each short
    segment follows the program."""
    return sum(min(sample.get(name, 0.0) for sample in samples)
               for name in set().union(*samples))


def fastest_laps(units, tally) -> tuple:
    """(wall, CPU) of a unit, each of its segments at its fastest."""
    counts = {len(u["segments"]) for u in units}
    tally.check(len(counts) == 1, "units made different numbers of laps: %r" % counts)
    return tuple(fastest([dict(enumerate(seg[i] for seg in u["segments"])) for u in units])
                 for i in (0, 1))


def time_setup(env, count: int) -> list:
    """Fresh interpreters that import m0nbar and exit: per sample, each
    module's own import time (from -X importtime) and the rest of the wall
    time (process and interpreter start, exit)."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        # no timeout= here: subprocess would poll with sleeps and quantise the time
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import m0nbar"],
                              cwd=ROOT, env=env, check=True, stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        sample = {}
        for line in proc.stderr.splitlines():
            # "import time:   self [us] |   cumulative | module", after a header
            fields = line.split("|")
            own = fields[0].partition(":")[2].strip()
            if line.startswith("import time:") and own.isdigit():
                name = fields[2].strip()
                sample[name] = sample.get(name, 0.0) + int(own) / 1e6
        sample["(rest)"] = wall - sum(sample.values())
        samples.append(sample)
    return samples


class Overtime(Exception):
    """The run passed DEADLINE_S."""


def _overtime(signum, frame):
    raise Overtime()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_counters(workload: str, units, tally) -> dict:
    """Exact counters must agree across traced units and with earlier runs of
    the same code (recorded under .bench_out); a drift fails the run."""
    seen = [{k: u["counters"][k] for k in EXACT_COUNTERS} for u in units]
    for other in seen[1:]:
        tally.check(other == seen[0], "counters drifted within the run: %r vs %r" % (seen[0], other))
    path = OUT / "counters.json"
    book = json.loads(path.read_text()) if path.exists() else {}
    digest = source_digest()
    entry = book.get(workload)
    if entry and entry["source"] == digest:
        tally.check(entry["counters"] == seen[0],
                    "counters drifted from an earlier run of the same code: %r vs %r"
                    % (entry["counters"], seen[0]))
    else:
        book[workload] = {"source": digest, "counters": seen[0]}
        path.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return seen[0]


def per_layer_metrics(workload, units, tally) -> dict:
    traced = [u for u in units if u["traced"] and "layers" in u]
    plain = [u for u in units if not u["traced"]]
    if not traced or not plain:
        tally.check(False, "no complete traced and plain unit to compare")
        return {}
    metrics = {}
    for name in sorted(traced[0]["layers"]):
        if not name.startswith("step."):
            metrics[name + "_s"] = (statistics.median(u["layers"][name] for u in traced), "s")
    for u in traced:
        u["counters"]["report.identities"], u["counters"]["report.failed"] = u["identities"]
    counters = check_counters(workload, traced, tally)
    counters["strata.enumerate_rss_mb"] = statistics.median(
        u["counters"]["strata.enumerate_rss_mb"] for u in traced)
    counters["report.failed"] = max(u["counters"]["report.failed"] for u in traced)
    for name, value in counters.items():
        metrics[name] = (value, COUNTER_UNITS[name])
    metrics["trace.overhead_s"] = (statistics.median(u["wall"] for u in traced)
                                   - statistics.median(u["wall"] for u in plain), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "keel-deep", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "m0nbar" / "__init__.py").is_file():
        print("benchmark: no m0nbar package under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(DEADLINE_S)
    try:
        return measure(args)
    except Overtime:
        print("benchmark: no result within %d s" % DEADLINE_S, file=sys.stderr)
        return 3
    except subprocess.CalledProcessError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 3


def measure(args) -> int:
    inputs = make_inputs(args.workload, args.seed)
    steps, probe = plan(args.workload, inputs)
    env = child_env()
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    time_setup(env, 1)      # the first import writes the .pyc files
    # set-up samples are spread over the run, so one slow spell of a shared
    # machine does not decide their median
    setup = time_setup(env, SETUP_SAMPLES)

    units, trace_lines, took = [], [], {}
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(units) % 2 == 1
        began = time.perf_counter()
        units.append(run_unit(len(units), steps, probe, inputs, traced, tally, env, trace_lines))
        setup += time_setup(env, 1)
        took[traced] = time.perf_counter() - began
        # start another unit only if one like the last of its kind still fits
        following = bool(args.trace) and len(units) % 2 == 1
        expected = took.get(following, took[traced])
        enough = len(units) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start + expected > args.seconds:
            break

    if args.trace:
        metrics = per_layer_metrics(args.workload, units, tally)
        trace_path = OUT / ("trace-%s-%d.jsonl" % (args.workload, args.seed))
        trace_path.write_text("".join(json.dumps(line) + "\n" for line in trace_lines))
    else:
        plain = [u for u in units if not u["traced"]]
        wall, cpu = fastest_laps(plain, tally)
        metrics = {
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": statistics.median(u["peak"] for u in plain),
            "setup_s": fastest(setup),
            "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}

    for what in tally.failures:
        print("benchmark: check failed: %s" % what, file=sys.stderr)
    print("%s: %d units in %.1f s, %d checks, %d failed; unit walls %s"
          % (args.workload, len(units), time.perf_counter() - start, tally.attempted,
             tally.failed, " ".join("%.3f" % u["wall"] for u in units)))
    for name, (value, unit) in metrics.items():
        print("  %-32s %s %s" % (name, value, unit))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
