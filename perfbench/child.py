"""Measured process of the benchmark: runs one workload in a fresh
interpreter and writes its numbers as JSON to ``--result``.

Set-up time runs from the top of this file, before numpy or pingerloc is
imported, through loading the config and reading the first recording. The
other recordings are read before each of their runs, untimed, so that at
most two are in memory at once.

The workload then runs its units (a localize unit is one recording through
``pipeline.run_localization``, a Monte Carlo unit one evaluation config
through ``pipeline.monte_carlo``) in turn, round after round: every unit
runs once, and more runs follow while ``--seconds`` allow. The inputs hold
many distinct units, so that the work of one seed is close to another's; a
unit that runs again must repeat its output byte for byte. Between the
items of a unit (reports or trials) a fixed piece of work (``Probe``) is
timed, and each stretch of work is also counted at the speed the probe
shows for a core of its own (see ``timing``).

With ``--setup-only`` the process writes its set-up time and, with
``--first-unit``, the fingerprint of the first unit's output, run once
untimed, so that outputs can be compared across processes.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced (spans.py); the ratio of their round times is the tracing
overhead.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Monte Carlo trials without noise up to this range must all succeed.
NEAR_CLEAN_M = 10.0
# Time of one probe (``Probe``) on a core of its own: the fastest of 6000
# probes on the reference host (2 vCPUs of a shared x86-64 server, Python
# 3.11, numpy 2.4, scipy 1.17); see ``timing``.
PROBE_NOMINAL_S = 2.6e-3


class Inputs:
    """What set-up loads: the package, the parsed config(s) and the first
    recording."""

    def __init__(self, manifest: dict):
        sys.path.insert(0, str(ROOT / "src"))
        import pingerloc
        import pingerloc.cli  # noqa: F401  (the CLI check runs through it)

        self.pingerloc = pingerloc
        self.manifest = manifest
        if manifest["workload"] == "montecarlo":
            self.configs = [
                pingerloc.pipeline.monte_carlo_config_from_dict(
                    json.loads((ROOT / e["path"]).read_text()))
                for e in manifest["evals"]]
        else:
            self.scenario = pingerloc.scene.load_scenario(ROOT / manifest["config"])
            self.first = self._read(0)

    def _read(self, k: int):
        return self.pingerloc.recording.read_recording(ROOT / self.manifest["files"][k]["path"])

    def recording(self, k: int):
        """Recording k; the first was read at set-up."""
        return self.first if k == 0 else self._read(k)


class Probe:
    """A fixed piece of work made of the three kinds the pipeline does: a
    pure-Python loop (the solver's iterations), passes over an array larger
    than the caches (whole-buffer numpy operations) and an IIR filter
    (filtering). Calling it returns its time: PROBE_NOMINAL_S on a core of
    its own, and up to twice that while other tenants share the host. Its
    array pass evicts the caches, so every item starts cold; tracing,
    which does not probe, therefore read about 4% faster on long_quiet and
    montecarlo."""

    def __init__(self):
        import numpy as np
        from scipy import signal

        self.np, self.signal = np, signal
        self.big = np.ones(1 << 19)
        self.out = np.empty_like(self.big)
        self.x = np.sin(0.3 * np.arange(8000))
        self.sos = signal.butter(4, [0.1, 0.2], btype="band", output="sos")

    def __call__(self) -> float:
        t = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        for _ in range(2):
            self.np.add(self.big, 1.0, out=self.out)
        for _ in range(3):
            self.signal.sosfilt(self.sos, self.x)
        return time.perf_counter() - t


def _no_probe() -> float:
    return 0.0


def _rounds(units, seconds: float, tracer, run_unit) -> list[list[dict]]:
    """Run the units in turn until ``seconds`` have elapsed, every unit at
    least once; no run starts when one as long as the previous would end
    past ``seconds``. Returns the runs grouped in rounds over the units (the
    last round may be partial).

    ``run_unit(unit, span, probe)`` returns the unit's output, its
    ``segments`` (seconds of work between item marks, see
    ``localize_rounds`` and ``montecarlo_rounds``) and its ``probes``:
    ``probe()`` is called before the first segment, between segments and
    after the last, outside their time. Traced runs do not probe, so that
    probe time stays out of every span."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    probe_fn = Probe() if tracer is None else _no_probe
    runs = []
    t_loop = time.perf_counter()
    last_s = 0.0
    while len(runs) < len(units) or time.perf_counter() - t_loop + last_s <= seconds:
        if tracer is not None:
            tracer.pass_index = len(runs) // len(units)
        t_run = time.perf_counter()
        runs.append(run_unit(units[len(runs) % len(units)], span, probe_fn))
        last_s = time.perf_counter() - t_run
    return [runs[k:k + len(units)] for k in range(0, len(runs), len(units))]


def localize_rounds(inputs: Inputs, seconds: float, tracer=None) -> list[list[dict]]:
    """A unit is one recording through run_localization. Its segments run
    from the call, or from resuming the generator, to each yielded report,
    and from the last one to the end."""
    run_localization = inputs.pingerloc.pipeline.run_localization

    def run_unit(k, span, probe):
        recording = inputs.recording(k)
        probes, segments, reports = [probe()], [], []
        t = time.perf_counter()
        with span("pipeline.run_localization"):
            for report in run_localization(inputs.scenario, recording=recording):
                segments.append(time.perf_counter() - t)
                reports.append(report)
                probes.append(probe())
                t = time.perf_counter()
        segments.append(time.perf_counter() - t)
        probes.append(probe())
        return {"segments": segments, "probes": probes, "output": reports}

    return _rounds(range(len(inputs.manifest["files"])), seconds, tracer, run_unit)


def montecarlo_rounds(inputs: Inputs, seconds: float, tracer=None) -> list[list[dict]]:
    """A unit is one evaluation config through monte_carlo. Its segments
    run from the call to the first entry into simulator.render_scene, which
    every trial calls once, first; then from each entry to the next, or to
    the return."""
    simulator = inputs.pingerloc.simulator
    monte_carlo = inputs.pingerloc.pipeline.monte_carlo

    def run_unit(config, span, probe):
        render = simulator.render_scene
        probes, segments = [probe()], []
        t = time.perf_counter()

        def marked(*args, **kwargs):
            nonlocal t
            segments.append(time.perf_counter() - t)
            probes.append(probe())
            t = time.perf_counter()
            return render(*args, **kwargs)

        simulator.render_scene = marked
        try:
            with span("pipeline.monte_carlo"):
                output = monte_carlo(config)
        finally:
            simulator.render_scene = render
        segments.append(time.perf_counter() - t)
        probes.append(probe())
        return {"segments": segments, "probes": probes, "output": output}

    return _rounds(inputs.configs, seconds, tracer, run_unit)


def _pct(values, q) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def timing(rounds: list[list[dict]], localize: bool, unit_work_s: list[float],
           unit_items: list[int]) -> dict:
    """End-to-end timings from the untraced runs. ``unit_work_s`` and
    ``unit_items`` give each unit's recording seconds and its reports or
    trials. Throughput is the work of every run over their summed time. An
    item is one report (localize: the segment that ends with it) or one
    trial (from its render to the next trial's, or to the return).

    Other tenants of the host share its cores: while one does, everything
    on the core runs up to twice as slow, in spells of a fraction of a
    second to a minute, which no run length averages out. So each segment
    is also counted at the speed of a core of its own: scaled by
    PROBE_NOMINAL_S over the mean of the probes on either side of it. The
    metrics without a suffix use these times; ``.wall`` metrics use the
    times as measured. In eight processes running the same recordings, the
    quartile spread of throughput was, as measured and scaled: 0.061 and
    0.013 on ping_train, 0.032 and 0.030 on long_quiet. Scaled by the
    pure-Python loop alone it was 0.043 and 0.037."""
    wall_s = core_s = work_s = n_items = 0.0
    firsts, items = [], []
    for units in rounds:
        for u, unit in enumerate(units):
            p = unit["probes"]
            core = [d * 2 * PROBE_NOMINAL_S / (a + b)
                    for d, a, b in zip(unit["segments"], p, p[1:])]
            wall_s += sum(unit["segments"])
            core_s += sum(core)
            work_s += unit_work_s[u]
            n_items += unit_items[u]
            if localize:
                firsts.append(core[0] * 1e3)
                items.extend(d * 1e3 for d in core[:-1])
            else:
                firsts.append((core[0] + core[1]) * 1e3)
                items.extend(d * 1e3 for d in core[1:])
    return {
        "metrics": {
            "realtime_factor": work_s / core_s,
            "trials_per_s": n_items / core_s,
            "realtime_factor.wall": work_s / wall_s,
            "trials_per_s.wall": n_items / wall_s,
            "first_report_ms": statistics.median(firsts),
            "item_ms.p50": _pct(items, 50),
            "item_ms.p90": _pct(items, 90),
        },
        "samples": {"first_report_ms": len(firsts), "item_ms": len(items),
                    "runs": sum(map(len, rounds)), "rounds": len(rounds)},
        "round_s": round_seconds(rounds),
        "probe_ms.p50": _pct([p for units in rounds for unit in units
                              for p in unit["probes"]], 50) * 1e3,
        "wall_over_core": wall_s / core_s,
    }


def round_seconds(rounds: list[list[dict]]) -> list[float]:
    return [sum(sum(u["segments"]) for u in units) for units in rounds]


def full_rounds(rounds: list[list[dict]]) -> list[list[dict]]:
    """The rounds that ran every unit."""
    return [units for units in rounds if len(units) == len(rounds[0])]


def _ndjson(reports) -> bytes:
    return "".join(json.dumps(r.to_json_dict()) + "\n" for r in reports).encode()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summarize_localize(inputs: Inputs, rounds: list[list[dict]], out_dir: Path,
                       cli_check: bool) -> dict:
    """Ground truth per expected ping: reported in order, converged and
    within the success threshold of the true azimuth. Every run of a
    recording must produce the same NDJSON bytes, and so must the command
    line."""
    from workloads import azimuth_error_deg

    pingerloc = inputs.pingerloc
    files = inputs.manifest["files"]
    threshold = pingerloc.pipeline.MonteCarloConfig.success_threshold_deg
    expected = sum(f["expected_pings"] for f in files)

    streams = [_ndjson(unit["output"]) for unit in rounds[0]]
    errors, octant_hits, solved, good = [], 0, 0, []
    for meta, unit in zip(files, rounds[0]):
        reports = unit["output"]
        ok_file = len(reports) == meta["expected_pings"]
        good.append(0)
        for k, (r, truth) in enumerate(zip(reports, meta["pings"])):
            err = azimuth_error_deg(r.azimuth, truth["true_az_deg"])
            errors.append(err)
            octant_hits += r.octant_guess == truth["true_octant"]
            solved += bool(r.converged)
            good[-1] += ok_file and r.ping_index == k and bool(r.converged) and err < threshold

    # A run fails the pings its recording got wrong, or all of them when
    # its output differs from the first run's.
    attempted = failed = 0
    repeat_bytes = True
    for units in rounds:
        for meta, unit, stream, n_good in zip(files, units, streams, good):
            same = _ndjson(unit["output"]) == stream
            repeat_bytes &= same
            attempted += meta["expected_pings"]
            failed += meta["expected_pings"] - (n_good if same else 0)

    checks = {"ground_truth": sum(good) == expected, "repeat_bytes": repeat_bytes}
    if cli_check:
        cli_out = out_dir / "cli_localize.ndjson"
        code = pingerloc.cli.main(["localize", "--config", str(ROOT / inputs.manifest["config"]),
                                   "--recording", str(ROOT / files[0]["path"]),
                                   "--out", str(cli_out)])
        checks["cli_bytes"] = code == 0 and cli_out.read_bytes() == streams[0]
    return {
        "timing": timing(rounds, True, [f["duration_s"] for f in files],
                         [f["expected_pings"] for f in files]),
        "quality": {
            "success_fraction": sum(good) / expected,
            "octant_accuracy": octant_hits / expected,
            "failed_fraction": (expected - solved) / expected,
            "az_err_deg.p50": _pct(errors, 50) if errors else 180.0,
            "az_err_deg.max": max(errors, default=180.0),
        },
        "fingerprints": {"ndjson_sha256": [_sha(s) for s in streams]},
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
    }


def summarize_montecarlo(inputs: Inputs, rounds: list[list[dict]], out_dir: Path,
                         cli_check: bool) -> dict:
    """Ground truth: every summary agrees with its rows, and every noiseless
    trial within NEAR_CLEAN_M is solved within the success threshold. Every
    run of an evaluation must write the same CSV bytes, and so must the
    command line."""
    pingerloc = inputs.pingerloc
    evals = inputs.manifest["evals"]
    trials = sum(e["trials"] for e in evals)
    threshold = evals[0]["success_threshold_deg"]

    def csv_bytes(output, k):
        path = out_dir / f"montecarlo_{k}.csv"
        pingerloc.pipeline.write_monte_carlo_csv(path, *output)
        return path.read_bytes()

    def succeeded(row):
        return row["converged"] and row["az_err_deg"] < threshold

    csvs = [csv_bytes(unit["output"], k) for k, unit in enumerate(rounds[0])]
    summaries_ok = all(
        summary.trials == len(unit_rows) == meta["trials"]
        and summary.success_count == sum(map(succeeded, unit_rows))
        for (summary, unit_rows), meta in zip((u["output"] for u in rounds[0]), evals))
    # Noiseless trials within NEAR_CLEAN_M that did not succeed, per evaluation.
    near_misses = [sum(not succeeded(r) for r in unit["output"][1]
                       if r["snr_db"] is None and r["range_m"] <= NEAR_CLEAN_M)
                   for unit in rounds[0]]

    # A run fails its near misses, or all its trials when its CSV differs
    # from the first run's.
    attempted = failed = 0
    repeat_bytes = True
    for units in rounds:
        for k, (meta, unit) in enumerate(zip(evals, units)):
            same = csv_bytes(unit["output"], k) == csvs[k]
            repeat_bytes &= same
            attempted += meta["trials"]
            failed += near_misses[k] if same else meta["trials"]

    rows = [r for unit in rounds[0] for r in unit["output"][1]]
    checks = {"ground_truth": summaries_ok and not any(near_misses),
              "repeat_bytes": repeat_bytes}
    if cli_check:
        cli_out = out_dir / "cli_montecarlo.csv"
        with contextlib.redirect_stdout(sys.stderr):
            code = pingerloc.cli.main(["montecarlo", "--config", str(ROOT / evals[0]["path"]),
                                       "--out", str(cli_out)])
        checks["cli_bytes"] = code == 0 and cli_out.read_bytes() == csvs[0]
    errors = [r["az_err_deg"] for r in rows]
    return {
        "timing": timing(rounds, False, [e["trials"] * e["recording_s_per_trial"] for e in evals],
                         [e["trials"] for e in evals]),
        "quality": {
            "success_fraction": sum(map(succeeded, rows)) / trials,
            "octant_accuracy": sum(r["octant_guess"] == r["octant_true"] for r in rows) / trials,
            "failed_fraction": sum(not r["converged"] for r in rows) / trials,
            "az_err_deg.p50": _pct(errors, 50),
            "az_err_deg.max": max(errors),
        },
        "fingerprints": {"csv_sha256": [_sha(c) for c in csvs]},
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
    }


def first_unit_sha(inputs: Inputs, out_dir: Path) -> str:
    """sha256 of the first unit's NDJSON stream or CSV, from one untimed run."""
    pipeline = inputs.pingerloc.pipeline
    if inputs.manifest["workload"] == "montecarlo":
        path = out_dir / "first_unit.csv"
        pipeline.write_monte_carlo_csv(path, *pipeline.monte_carlo(inputs.configs[0]))
        return _sha(path.read_bytes())
    return _sha(_ndjson(pipeline.run_localization(inputs.scenario, recording=inputs.first)))


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cli-check", action="store_true",
                        help="also run the first input through pingerloc.cli.main")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and write only its time")
    parser.add_argument("--first-unit", action="store_true",
                        help="with --setup-only, also fingerprint the first unit's output")
    args = parser.parse_args()

    manifest = json.loads(Path(args.manifest).read_text())
    inputs = Inputs(manifest)
    setup_s = time.perf_counter() - T_START
    result_path = Path(args.result)
    if args.setup_only:
        result = {"setup_s": setup_s}
        if args.first_unit:
            result["first_unit_sha256"] = first_unit_sha(inputs, result_path.parent)
        result_path.write_text(json.dumps(result))
        return 0
    localize = manifest["workload"] != "montecarlo"
    run = localize_rounds if localize else montecarlo_rounds
    summarize = summarize_localize if localize else summarize_montecarlo
    out_dir = result_path.parent

    measure_s = args.seconds / 2 if args.trace else args.seconds
    rounds = run(inputs, measure_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if args.trace:
        import spans

        # The traced half sets up again, so set-up layers are traced too.
        inputs.first = None
        tracer = spans.Tracer()
        spans.install(tracer, inputs.pingerloc)
        try:
            traced = run(Inputs(manifest), measure_s, tracer)
        finally:
            tracer.restore()
        recorded = sum(f["samples"] for f in manifest["files"]) if localize else None
        layers = spans.layer_metrics(tracer, recorded, len(full_rounds(traced)))
        layers["tracing.overhead_ratio"] = (statistics.median(round_seconds(full_rounds(traced)))
                                            / statistics.median(round_seconds(full_rounds(rounds))))
        tracer.write(out_dir / "spans.jsonl")

    summary = summarize(inputs, rounds, out_dir, args.cli_check)
    summary.update({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "layers": layers,
                    "environment": environment()})
    result_path.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
