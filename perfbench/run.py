"""pingerloc benchmark.

    python3 perfbench/run.py --workload ping_train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It generates the workload's inputs
from ``--seed`` (workloads.py), then runs the workload in one fresh,
single-threaded process (child.py) that runs it for ``--seconds``, and
times set-up in SETUP_PROCESSES more processes that stop after it. It prints
every metric with its unit and which direction is better, then, as the last
line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer metrics
with ``--trace 1``. realtime_factor and trials_per_s count work at the speed
of a core of its own, measured between items by a fixed probe; the
``.wall`` variants, printed but not bounded, use the time as measured
(child.timing explains why). Everything measured, the environment, the
input and output fingerprints and (traced) the spans go to
``.perfbench_out/<workload>-seed<seed>-trace<trace>/``.
"""

import os

# Children inherit these; numpy reads them when it is first imported.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# setup_s is the median of the measured process's set-up and these many
# set-up-only processes.
SETUP_PROCESSES = 2
# The whole run must finish within 180 s; children get what is left of this.
DEADLINE_S = 170.0

# Printed and stored, but not bounded in BENCHMARK.json. The .wall figures
# moved by up to 2x with other tenants' load on the host (child.timing).
# Over ten seeds per workload the quartile spread reached 0.11 for
# first_report_ms, 0.15 for item_ms.p90 and 0.08 for item_ms.p50, more than a
# third of 0.25, the largest bound allowed. failed_fraction is zero on the
# localize workloads; the azimuth errors depend on the seed's noise and
# directions.
UNBOUNDED = [
    {"name": "realtime_factor.wall", "unit": "s/s", "better": "higher"},
    {"name": "trials_per_s.wall", "unit": "1/s", "better": "higher"},
    {"name": "item_ms.p50", "unit": "ms", "better": "lower"},
    {"name": "first_report_ms", "unit": "ms", "better": "lower"},
    {"name": "item_ms.p90", "unit": "ms", "better": "lower"},
    {"name": "failed_fraction", "unit": "fraction", "better": "lower"},
    {"name": "az_err_deg.p50", "unit": "deg", "better": "lower"},
    {"name": "az_err_deg.max", "unit": "deg", "better": "lower"},
]


class BenchError(Exception):
    pass


def _run_child(args: list[str], deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a measured process")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                              env=dict(os.environ, PYTHONHASHSEED="0"),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"measured process exceeded the time limit: {exc}") from None
    sys.stderr.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"measured process exited with {proc.returncode}")


def _print_metrics(title: str, values: dict, specs: list[dict], samples: dict) -> dict:
    """Print every metric of ``specs`` found in ``values``; return them in
    the result line's form."""
    print(f"# {title}")
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in values:
            continue
        n = samples.get(name.split(".p")[0])
        count = f"  n={n}" if n is not None else ""
        print(f"{name:<34} {values[name]:>14.6g} {spec['unit']:<9} "
              f"{spec['better']} is better{count}")
        out[name] = {"value": values[name], "unit": spec["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "pingerloc" / "__init__.py").is_file():
        print(f"error: no pingerloc sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    inputs_dir = out_dir / "inputs"
    manifest_path = out_dir / "manifest.json"
    # Traced: the measured process runs untraced for the first half of the
    # time and traced for the second.
    child_args = ["--manifest", str(manifest_path), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
    try:
        manifest = workloads.generate(args.workload, args.seed, ROOT, inputs_dir)
        manifest_path.write_text(json.dumps(manifest, indent=1))
        setups = []
        for k in range(SETUP_PROCESSES):
            result_path = out_dir / f"setup{k}.json"
            flags = ["--first-unit"] if k == 0 else []
            _run_child([*child_args, "--result", str(result_path), "--setup-only", *flags],
                       deadline)
            setups.append(json.loads(result_path.read_text()))
        result_path = out_dir / "measured.json"
        _run_child([*child_args, "--result", str(result_path), "--cli-check"], deadline)
        child = json.loads(result_path.read_text())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    first_unit_sha256 = setups[0]["first_unit_sha256"]
    setups = [s["setup_s"] for s in setups] + [child["setup_s"]]
    e2e = dict(child["timing"]["metrics"])
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = child["peak_rss_mb"]
    e2e.update(child["quality"])
    samples = {**child["timing"]["samples"], "setup_s": len(setups)}
    # Another process must reach the same output for the first unit.
    [unit_shas] = child["fingerprints"].values()
    checks = {**child["checks"], "same_across_processes": unit_shas[0] == first_unit_sha256}
    correct = all(checks.values())
    attempted, failed = child["attempted"], child["failed"]
    layers = child["layers"]
    env = child["environment"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "checks": checks,
        "attempted": attempted, "failed": failed, "end_to_end": e2e, "samples": samples,
        "setup_s": setups, "round_s": child["timing"]["round_s"],
        "probe_ms.p50": child["timing"]["probe_ms.p50"],
        "wall_over_core": child["timing"]["wall_over_core"],
        "per_layer": layers, "inputs": manifest, "outputs": child["fingerprints"],
        "environment": env,
    }
    (out_dir / "result.json").write_text(json.dumps(report, indent=1))

    print(f"# pingerloc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"runs={samples['runs']} rounds={samples['rounds']}")
    print(f"# python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['cores_usable']} usable cores, 1 thread per process")
    print(f"# checks: {json.dumps(checks)}")
    metrics = _print_metrics("end-to-end", e2e, spec["end_to_end"], samples)
    _print_metrics("end-to-end, not bounded", e2e, UNBOUNDED, samples)
    if args.trace:
        metrics = _print_metrics("per layer, traced", layers, spec["per_layer"], {})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
