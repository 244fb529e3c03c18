"""Span tracing from outside the program: module attributes are replaced by
wrappers that record one span per call.

A span is [id, parent id, name, pass, start, end, info]. Spans stay in memory
and are written out when the run ends. A span's self time is its duration
minus the durations of its direct children; calls are single-threaded and
nested, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ID, PARENT, NAME, PASS, START, END, INFO = range(7)

# Pass index of spans recorded while loading the config and recordings.
SETUP_PASS = -1


class Tracer:
    """Spans and call counts of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_index = SETUP_PASS
        # (pass, name) -> number of calls, for calls too frequent to span.
        self.calls: dict[tuple[int, str], int] = defaultdict(int)
        self.counted: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name,
               self.pass_index, 0.0, 0.0, {}]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording a span named
        ``name``. The span's info dict gets ``before(args)`` and, when the
        call returns, ``after(result)``; a call that raises stores the
        exception class under "error"."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = before(args) if before is not None else {}
            rec = self._open(name)
            rec[INFO] = info
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(rec)
                info["error"] = type(exc).__name__
                raise
            self._close(rec)
            if after is not None:
                info.update(after(result))
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` per pass without spans; patch
        nothing when the attribute does not exist."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[(self.pass_index, name)] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)
        self.counted.add(name)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Self time in seconds of every span, indexed by span id."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def write(self, path: Path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "id": rec[ID], "parent": rec[PARENT], "name": rec[NAME],
                    "pass": rec[PASS], "start_ms": (rec[START] - t0) * 1e3,
                    "dur_ms": (rec[END] - rec[START]) * 1e3, "info": rec[INFO],
                }) + "\n")


def _samples_arg(index: int):
    return lambda args: {"samples": int(np.size(args[index]))}


def _rendered(rec) -> dict:
    return {"samples": int(rec.channels.size)}


def install(tracer: Tracer, pingerloc) -> None:
    """Wrap the public entry points of every layer. ``simulator`` binds
    ``filter_signal`` by name, so its copy is wrapped on its own and kept
    apart from the localizer's filtering."""
    dsp, guess, recording, scene, simulator, solver = (
        pingerloc.dsp, pingerloc.guess, pingerloc.recording, pingerloc.scene,
        pingerloc.simulator, pingerloc.solver)
    tracer.wrap(recording, "read_recording", "recording.read_recording",
                after=lambda rec: {"bytes": int(rec.channels.nbytes)})
    tracer.wrap(scene, "load_scenario", "scene.load_scenario")
    tracer.wrap(simulator, "render_scene", "simulator.render_scene", after=_rendered)
    tracer.wrap(simulator, "add_noise", "simulator.add_noise", after=_rendered)
    tracer.wrap(simulator, "filter_signal", "simulator.filter_signal", before=_samples_arg(1))
    tracer.wrap(dsp, "filter_signal", "dsp.filter_signal", before=_samples_arg(1))
    tracer.wrap(dsp, "detect_ping", "dsp.detect_ping", before=_samples_arg(0))
    tracer.wrap(dsp, "estimate_delay", "dsp.estimate_delay")
    tracer.wrap(dsp, "select_stable_window", "dsp.select_stable_window")
    tracer.wrap(dsp, "tdoa_from_filtered", "dsp.tdoa_from_filtered")
    tracer.wrap(guess, "octant_guess", "guess.octant_guess",
                after=lambda g: {"low_confidence": bool(g.low_confidence)})
    tracer.wrap(solver, "gradient_descent", "solver.gradient_descent",
                after=lambda r: {"iterations": int(r.iterations),
                                 "converged": bool(r.converged),
                                 "stop_reason": r.stop_reason})
    # Objective evaluations are not exposed by SolverResult; without these
    # private names the metric is left out rather than failing the run.
    problem = getattr(solver, "_Problem", None)
    for attr in ("objective", "objective_and_grad"):
        tracer.count(problem, attr, "solver.objective")


STOP_REASONS = ("grad_tol", "f_tol", "max_iters", "line_search_failed")
WINDOW_SPANS = ("dsp.select_stable_window", "dsp.tdoa_from_filtered")
PIPELINE_SPANS = ("pipeline.run_localization", "pipeline.monte_carlo")


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _per_pass(tracer: Tracer, pass_index: int, own: list[float],
              samples_recorded: int | None) -> dict:
    by_name: dict[str, list[list]] = defaultdict(list)
    for rec in tracer.spans:
        if rec[PASS] == pass_index:
            by_name[rec[NAME]].append(rec)

    def dur(rec):
        return rec[END] - rec[START]

    def total_ms(name):
        return sum(dur(r) for r in by_name[name]) * 1e3

    def samples(name):
        return sum(r[INFO]["samples"] for r in by_name[name])

    m: dict[str, float] = {}
    renders = [dur(r) * 1e3 for r in by_name["simulator.render_scene"]]
    m["simulator.render_ms.p50"] = _pct(renders, 50)
    m["simulator.render_filter_ms"] = total_ms("simulator.filter_signal")
    m["simulator.add_noise_ms"] = total_ms("simulator.add_noise")
    render_s = sum(renders) / 1e3
    m["simulator.msamples_per_s"] = (samples("simulator.render_scene") / 1e6 / render_s
                                     if render_s > 0 else 0.0)

    m["dsp.filter_ms"] = total_ms("dsp.filter_signal")
    m["dsp.filter_calls"] = len(by_name["dsp.filter_signal"])
    filter_s = m["dsp.filter_ms"] / 1e3
    m["dsp.filter_msamples_per_s"] = (samples("dsp.filter_signal") / 1e6 / filter_s
                                      if filter_s > 0 else 0.0)

    m["dsp.onset_ms"] = total_ms("dsp.detect_ping")
    m["dsp.onset_calls"] = len(by_name["dsp.detect_ping"])
    m["dsp.onset_samples_scanned"] = samples("dsp.detect_ping")
    recorded = samples_recorded or samples("simulator.render_scene")
    m["dsp.onset_scan_ratio"] = m["dsp.onset_samples_scanned"] / recorded

    windows = [r for name in WINDOW_SPANS for r in by_name[name]]
    m["dsp.window_self_ms"] = sum(own[r[ID]] for r in windows) * 1e3
    m["dsp.delay_ms"] = total_ms("dsp.estimate_delay")
    m["dsp.delay_calls"] = len(by_name["dsp.estimate_delay"])
    # A select_stable_window call reaches tdoa_from_filtered; count each
    # search once, by its innermost span.
    searches = by_name["dsp.tdoa_from_filtered"]
    ok = sum(1 for r in searches if "error" not in r[INFO])
    m["dsp.window_ok_ratio"] = ok / len(searches) if searches else 0.0

    guesses = by_name["guess.octant_guess"]
    m["guess.octant_us"] = (sum(dur(r) for r in guesses) / len(guesses) * 1e6
                            if guesses else 0.0)
    m["guess.low_confidence_count"] = sum(1 for r in guesses if r[INFO].get("low_confidence"))

    solves = [r for r in by_name["solver.gradient_descent"] if "iterations" in r[INFO]]
    solve_ms = [dur(r) * 1e3 for r in solves]
    iters = [r[INFO]["iterations"] for r in solves]
    m["solver.solve_ms.p50"] = _pct(solve_ms, 50)
    m["solver.solve_ms.p90"] = _pct(solve_ms, 90)
    m["solver.iterations.p50"] = _pct(iters, 50)
    m["solver.iterations.max"] = max(iters) if iters else 0
    m["solver.iterations_total"] = sum(iters)
    if "solver.objective" in tracer.counted:
        m["solver.obj_evals_total"] = tracer.calls[(pass_index, "solver.objective")]
    m["solver.converged_ratio"] = (sum(1 for r in solves if r[INFO]["converged"]) / len(solves)
                                   if solves else 0.0)
    for reason in STOP_REASONS:
        m[f"solver.stop.{reason}"] = sum(1 for r in solves if r[INFO]["stop_reason"] == reason)

    pipelines = [r for name in PIPELINE_SPANS for r in by_name[name]]
    m["pipeline.self_ms"] = sum(own[r[ID]] for r in pipelines) * 1e3
    return m


def layer_metrics(tracer: Tracer, samples_recorded: int | None, full_passes: int) -> dict:
    """Per-layer metrics of one pass, as the median over the first
    ``full_passes`` traced passes, which ran every unit (counts repeat
    exactly from pass to pass), plus the set-up layers. ``samples_recorded``
    is the number of samples (all channels) one pass reads; None means the
    samples the pass rendered."""
    own = tracer.self_times()
    passes = range(full_passes)
    rows = [_per_pass(tracer, p, own, samples_recorded) for p in passes]
    out = {key: float(np.median([row[key] for row in rows])) for key in rows[0]}

    setup = [rec for rec in tracer.spans if rec[PASS] == SETUP_PASS]
    reads = [r for r in setup if r[NAME] == "recording.read_recording"]
    read_s = sum(r[END] - r[START] for r in reads)
    read_bytes = sum(r[INFO]["bytes"] for r in reads)
    out["recording.read_ms"] = read_s * 1e3
    out["recording.read_mb_per_s"] = read_bytes / 1e6 / read_s if read_s > 0 else 0.0
    out["scene.load_ms"] = sum(r[END] - r[START] for r in setup
                               if r[NAME] == "scene.load_scenario") * 1e3
    return out
