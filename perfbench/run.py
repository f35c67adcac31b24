"""Benchmark of bicmaps: end-to-end and per-layer numbers for four CLI workloads.

One workload, one seed (the last stdout line is the result as JSON):

    python3 perfbench/run.py --workload twopoint-quad --seed 1 --seconds 25 --trace 0

Every workload, ten seeds each and round-robin, then one traced run per
workload and the scaling report, written to perfbench/out/baseline.json:

    python3 perfbench/run.py --baseline

Each sample is one call of ``bicmaps.cli.main(argv)`` in a fresh child
process (``child.py``), one child at a time.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

MIN_SAMPLES = 3
SETUP_SAMPLES = 15
TRACED_RUNS = 2
CHILD_TIMEOUT_S = 170
SCALING_SAMPLES = 3
BASELINE_SEEDS = 10
REFERENCE_ROUNDS = 40
# Nominal seconds of reference() on a quiet host.  run_s.* and setup_s scale
# each child's times by REFERENCE_S over the calibration time measured around
# that child, which cancels most of the host's speed drift.
REFERENCE_S = 0.2
SCALING = {
    "twopoint-quad": ("--order", (6, 8, 10, 12, 14)),
    "closed-hex": ("--order", (8, 10, 12, 14, 16)),
    "determinant-mixed": ("--i-max", (6, 8, 10, 12)),
}
END_TO_END = {
    "run_s.median": "s",
    "run_s.upper": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_share": "share",
}


# -- arithmetic ---------------------------------------------------------------


def upper(values) -> tuple[float, float]:
    """The tail time of a run and the percentile it sits at.

    That is the highest percentile with at least ten samples beyond it, but
    never below the third quartile.  The two meet at 40 samples; a run of
    ``--seconds 25`` holds 6 to 15, where ten samples beyond would put the
    percentile at or below the median, so such a run reports the third
    quartile (inclusive method).
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 40:
        return xs[n - 11], (n - 10) / n
    if n == 1:
        return xs[0], 0.75
    return statistics.quantiles(xs, n=4, method="inclusive")[2], 0.75


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- samples --------------------------------------------------------------------


def spawn(argv: list[str] | None, trace: bool, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one child; argv None measures set-up alone.  A child that runs past
    ``timeout`` seconds is killed and counts as a crash."""
    spec = {"root": ROOT, "argv": argv, "trace": trace, "spawned": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, "-I", CHILD, json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"crash": [f"timeout after {timeout:g} s"]}
    if proc.returncode != 0:
        return {"crash": proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]}
    return json.loads(proc.stdout)


def run_problems(sample: dict) -> list[str]:
    if "crash" in sample:
        return [f"child crashed: {sample['crash']}"]
    problems = []
    if sample["error"]:
        problems.append(f"exception: {sample['error'].strip().splitlines()[-1]}")
    if sample["code"] != 0:
        problems.append(f"exit code {sample['code']}")
    return problems


def _truncated_mul(a: dict, b: dict, order: int) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            if i + j + k + m <= order:
                e = (i + k, j + m)
                out[e] = out.get(e, 0) + x * y
    return out


def reference() -> float:
    """Seconds taken by a fixed calibration computation.

    It multiplies bivariate truncated series held in dicts, with integer and
    Fraction coefficients, like the program's hot loop, but uses no bicmaps
    code, so no change to the program can change its work.  The garbage
    collector is paused meanwhile, so that the objects this process holds,
    such as a traced run's spans, cannot change its time either.
    """
    order = 9
    ints = {(i, j): (i + 1) * (j + 2) for i in range(order + 1) for j in range(order + 1 - i)}
    fracs = {(i, j): Fraction(i + 2 * j + 1, j + 3) for (i, j) in ints}
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REFERENCE_ROUNDS):
            f, g = fracs, ints
            for _ in range(3):
                g = _truncated_mul(g, ints, order)
            for _ in range(2):
                f = _truncated_mul(f, ints, order)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def sample(argv: list[str] | None, trace: bool, refs: list[float]) -> dict:
    """One child, then the calibration computation in this process.

    ``refs[-1]`` must hold the calibration time measured just before; the
    sample's ``ref_s`` is the mean of the two around it.
    """
    result = spawn(argv, trace)
    refs.append(reference())
    result["ref_s"] = (refs[-2] + refs[-1]) / 2
    return result


def sample_until(argv: list[str], seconds: float, refs: list[float]) -> list[dict]:
    """Untraced samples until the next one would overrun ``seconds``."""
    samples, walls = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        samples.append(sample(argv, False, refs))
        walls.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if len(samples) >= MIN_SAMPLES and elapsed + statistics.median(walls) > seconds:
            return samples


def scaled(samples: list[dict], key: str) -> list[float]:
    """``key`` of each sample that has it, scaled to the nominal host speed."""
    return [s[key] * REFERENCE_S / s["ref_s"] for s in samples if key in s]


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, information) for one workload and seed."""
    import spans
    from workloads import WORKLOADS, judge, output_stats

    workload = WORKLOADS[name]
    argv = workload.argv(seed)
    refs = [reference()]
    samples = sample_until(argv, seconds / 2 if trace else seconds, refs)
    traced = [sample(argv, True, refs) for _ in range(TRACED_RUNS)] if trace else []
    everything = samples + traced
    probes = []
    while len(everything) + len(probes) < SETUP_SAMPLES:
        probes.append(sample(None, False, refs))
        if "crash" in probes[-1]:
            break
    setups = scaled(everything + probes, "setup_s")

    problems = [run_problems(s) for s in everything]
    texts = [None if p else s["doc"] for s, p in zip(everything, problems)]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for p, verdict in zip(problems, judge(workload, seed, ROOT, texts)):
        if not p:
            p.extend(verdict)

    info = {
        "workload": name,
        "seed": seed,
        "argv": argv,
        "env": next((s["env"] for s in everything if "env" in s), None),
    }
    times = [s["run_s"] for s in samples if "run_s" in s]
    if not times:
        raise SystemExit(f"{name}: no sample ran: {problems[0]}")
    metrics: dict[str, float] = {}
    if trace:
        per_run = []
        for s in traced:
            if "spans" in s:
                values = spans.layer_values(spans.aggregate(s["spans"]), s["counts"])
                factor = REFERENCE_S / s["ref_s"]
                per_run.append({k: v * factor if k.endswith("_s") else v for k, v in values.items()})
        steady = [{k: v for k, v in run.items() if not k.endswith("_s")} for run in per_run]
        if len(per_run) != TRACED_RUNS or any(run != steady[0] for run in steady):
            for p in problems[len(samples):]:
                p.append("traced counts differ between traced runs")
        if not per_run:
            raise SystemExit(f"{name}: no traced run finished: {problems[-1]}")
        metrics.update(steady[0])
        for key in per_run[0].keys() - steady[0].keys():
            metrics[key] = statistics.median(run[key] for run in per_run)
        doc = json.loads(next((t for t in texts if t is not None), "{}"))
        metrics["rational.output_noninteger_share"], metrics["rational.output_coeff_bits.max"] = (
            output_stats(doc)
        )
        traced_times = scaled(traced, "run_s")
        if traced_times:
            info["tracing_overhead_s"] = (
                statistics.median(traced_times) - statistics.median(scaled(samples, "run_s"))
            )
        os.makedirs(OUT, exist_ok=True)
        info["trace_file"] = os.path.join(OUT, f"trace-{name}-{seed}.json")
        with open(info["trace_file"], "w", encoding="utf-8") as fh:
            json.dump({"info": info, "metrics": metrics, "spans": traced[0].get("spans")}, fh)
        units = {k: unit for k, (unit, _) in spans.layer_metrics().items()}
    else:
        runs = scaled(samples, "run_s")
        rss = [s["maxrss_kib"] for s in samples if "maxrss_kib" in s]
        metrics["run_s.median"] = statistics.median(runs)
        metrics["run_s.upper"], info["run_s.upper_percentile"] = upper(runs)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mib"] = statistics.median(rss) / 1024
        metrics["ok_share"] = sum(1 for p in problems if not p) / len(problems)
        units = END_TO_END
        info["wall_s.median"] = statistics.median(times)
        info["wall_s.upper"] = upper(times)[0]
        info["wall_setup_s"] = statistics.median(
            s["setup_s"] for s in everything + probes if "setup_s" in s
        )
        info["ref_s.median"] = statistics.median(refs)

    failed = sum(1 for p in problems if p)
    info.update(
        samples=len(times),
        traced_runs=len(traced),
        setup_samples=len(setups),
        failed_share=failed / len(problems),
        problems=sorted({x for p in problems for x in p}),
    )
    result = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, info


# -- reports ----------------------------------------------------------------------


def invoke(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """This script for one workload and seed, in its own process."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def scaling() -> dict:
    """Median scaled run seconds over truncation order or i-max; not gated."""
    from workloads import WORKLOADS

    report = {}
    refs = [reference()]
    for name, (flag, points) in SCALING.items():
        base = WORKLOADS[name].argv(0)
        curve = {}
        for point in points:
            argv = list(base)
            argv[argv.index(flag) + 1] = str(point)
            samples = [sample(argv, False, refs) for _ in range(SCALING_SAMPLES)]
            curve[str(point)] = statistics.median(scaled(samples, "run_s"))
            print(f"scaling {name} {flag} {point}: {curve[str(point)]:.3f} s", flush=True)
        report[name] = {"flag": flag, "run_s.median": curve, "samples": SCALING_SAMPLES}
    return report


def baseline(seconds: int) -> None:
    """Every workload over BASELINE_SEEDS seeds, round-robin, then traced runs and scaling."""
    from workloads import WORKLOADS

    sets: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    env = None
    for seed in range(1, BASELINE_SEEDS + 1):
        for name in WORKLOADS:
            result, info = invoke(name, seed, seconds, 0)
            env = info["env"]
            sets[name].append({"seed": seed, "result": result, "info": info})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: {values} failed {result['failed']}", flush=True)
    summary = {}
    for name, rows in sets.items():
        summary[name] = {}
        for metric in END_TO_END:
            values = [r["result"]["metrics"][metric]["value"] for r in rows]
            summary[name][metric] = {
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else None,
                "values": values,
            }
    traced = {}
    for name in WORKLOADS:
        result, info = invoke(name, 1, seconds, 1)
        traced[name] = {
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "tracing_overhead_s": info.get("tracing_overhead_s"),
            "correct": result["correct"],
        }
        print(f"{name} traced: overhead {traced[name]['tracing_overhead_s']} s", flush=True)
    report = {
        "env": env,
        "seconds": seconds,
        "runs": BASELINE_SEEDS,
        "end_to_end": summary,
        "per_layer": traced,
        "scaling": scaling(),
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "baseline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for name, metrics in summary.items():
        for metric, s in metrics.items():
            print(f"{name:18} {metric:14} median {s['median']:.4f} spread {s['spread']}")
    print(f"wrote {path}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help="run everything, see above")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bicmaps", "cli.py")):
        print(f"no bicmaps sources under {ROOT}/src", file=sys.stderr)
        return 1
    if args.baseline:
        baseline(args.seconds)
    elif args.workload is None:
        parser.error("name a --workload, or ask for --baseline")
    else:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(info, sort_keys=True))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
