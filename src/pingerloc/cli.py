"""Command-line interface.

Subcommands:
    simulate    scenario JSON -> recording file
    localize    scenario JSON (or recording file) -> NDJSON azimuth reports
    montecarlo  eval JSON -> CSV of trials + JSON summary
    validate    load a scenario, checking its array against the carrier

localize writes one line per ping: a report, or for a failed ping (no ping
on a coarse channel, unstable window, singular geometry or divergence) a
failure record, with an ``error: <class>: <message>`` line on stderr; the
stream goes on past it.

Exit codes: 0 success (localize: every report converged), 1 configuration or
usage error, a file that cannot be read or written, or a recording too large
to render or filter in memory, 2 no ping found on the reference channel (no
line is written), 3 a solve did not converge, 4 some ping failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import dsp, pipeline, recording as rec, scene, simulator

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_PING = 2
EXIT_NOT_CONVERGED = 3
EXIT_PING_FAILED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pingerloc",
                                     description="Acoustic pinger localization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render a scenario to a recording file")
    p_sim.add_argument("--config", required=True, help="scenario JSON path")
    p_sim.add_argument("--out", required=True, help="output recording path")
    p_sim.add_argument("--seed", type=int, default=None, help="override scenario seed")

    p_loc = sub.add_parser("localize", help="report pinger azimuth per detected ping")
    p_loc.add_argument("--config", required=True, help="scenario JSON path")
    p_loc.add_argument("--recording", default=None,
                       help="process this recording instead of rendering the scenario")
    p_loc.add_argument("--out", default=None, help="write NDJSON here instead of stdout")
    p_loc.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_loc.add_argument("--timing", action="store_true",
                       help="include per-stage milliseconds in each line, with the "
                            "recording's render, filter (the front end's three filter "
                            "calls), onset (channel scans) and tdoa (one window search over "
                            "every ping) time on the first line only, report or failure "
                            "record (makes output non-reproducible)")
    p_loc.add_argument("--debug-window", action="store_true",
                       help="dump window-search diagnostics as JSON to stderr")

    p_mc = sub.add_parser("montecarlo", help="randomized evaluation over ranges and SNRs")
    p_mc.add_argument("--config", required=True, help="eval config JSON path")
    p_mc.add_argument("--out", default=None, help="CSV output path")
    p_mc.add_argument("--seed", type=int, default=None, help="override config seed")
    p_mc.add_argument("--json", action="store_true", help="print the summary as JSON")

    p_val = sub.add_parser("validate", help="check array geometry for the scenario carrier")
    p_val.add_argument("--config", required=True, help="scenario JSON path")

    return parser


def _load_scenario(path: str, seed_override: int | None) -> scene.Scenario:
    scenario = scene.load_scenario(path)
    if seed_override is not None:
        scenario = dataclasses.replace(scenario, seed=seed_override)
    return scenario


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args.config, args.seed)
    # Fail on an unwritable path or sample rate now, not after a 2 s render,
    # and leave no empty recording behind when the render or write fails.
    rec.write_recording(rec.MultiChannelRecording(scenario.sample_rate, [[]] * 8), args.out)
    try:
        recording = simulator.render_scene(scenario)
        rec.write_recording(recording, args.out)
    except BaseException:
        os.remove(args.out)
        raise
    print(f"wrote {recording.channel_count} channels x {recording.samples_per_channel} "
          f"samples at {recording.sample_rate:.0f} Hz to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_localize(args) -> int:
    scenario = _load_scenario(args.config, args.seed)
    loaded = rec.read_recording(args.recording) if args.recording else None
    channels = scenario.array.precise_channels

    out = open(args.out, "w") if args.out else sys.stdout
    all_converged, any_failed = True, False
    try:
        for outcome in pipeline.run_localization(scenario, recording=loaded):
            out.write(json.dumps(outcome.to_json_dict(include_timing=args.timing)) + "\n")
            if outcome.error is not None:
                any_failed = True
                print(f"error: {type(outcome.error).__name__}: {outcome.error}", file=sys.stderr)
            all_converged = all_converged and outcome.converged
            if args.debug_window:
                line = {"ping_index": outcome.ping_index}
                if outcome.tdoa is not None:
                    line["window"] = list(outcome.tdoa.window)
                    line["pair_delays_us"] = {
                        f"{channels[i]}-{channels[j]}": delay * 1e6
                        for (i, j), delay in zip(dsp.PAIRS, outcome.tdoa.pair_delays)}
                print(json.dumps({**line, **outcome.window_search}), file=sys.stderr)
    except dsp.NoPingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PING
    finally:
        if args.out:
            out.close()
    if any_failed:
        return EXIT_PING_FAILED
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def _cmd_montecarlo(args) -> int:
    config = scene.load_config(pipeline.MonteCarloConfig, args.config, "eval")
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out:
        # Fail on an unwritable path now, not after the whole grid has run,
        # and leave no empty CSV behind when the grid or the write fails.
        open(args.out, "w").close()
    try:
        summary, rows = pipeline.monte_carlo(config)
        if args.out:
            pipeline.write_monte_carlo_csv(args.out, summary, rows)
    except BaseException:
        if args.out:
            os.remove(args.out)
        raise
    doc = summary.to_json_dict()
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"trials {doc['trials']}  success {doc['success_fraction']:.3f}  "
              f"az err p50/p90/max {doc['az_err_p50']:.3f}/{doc['az_err_p90']:.3f}/"
              f"{doc['az_err_max']:.3f} deg  octant acc {doc['octant_accuracy']:.3f}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    # Loading checks the array against the carrier (Scenario raises
    # ConfigError listing every violation).
    _load_scenario(args.config, None)
    print("array ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "localize": _cmd_localize,
        "montecarlo": _cmd_montecarlo,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except scene.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (rec.RecordingFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
