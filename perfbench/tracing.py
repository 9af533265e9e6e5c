"""The traced run: per-layer numbers from spans around public functions.

The workload's first-pass requests are sent through ``prismvol.cli.main`` in
this process.  In a traced pass every function listed in ``TARGETS`` is
replaced, at each module attribute that holds it, by a wrapper that records a
span ``[name, parent, start_ns, end_ns, note]`` in memory; an untraced pass
runs the same requests with the originals in place.  Passes alternate after a
warm-up, and the per-layer metrics are medians over the traced passes.  The
spans of the first traced pass are written out when the run ends.

A layer's self time is its spans' duration minus the part covered by their
child spans, so self times under ``covers.prism_verify`` add up to its busy
time; the run record lists that breakdown.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEADLINE_MISSED, BenchError, Outcome, pass_errors

# metric -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "exact.smith_normal_form.calls": ("count", "lower", "homology wall_s"),
    "exact.smith_normal_form.busy_ms": ("ms", "lower", "homology tail_ms, ok_frac, wall_s"),
    "exact.smith_normal_form.max_ms": ("ms", "lower", "homology tail_ms, ok_frac"),
    "exact.smith_normal_form.transform_bits": ("bits", "lower", "homology tail_ms, ok_frac"),
    "seifert.first_homology.calls": ("count", "lower", "homology wall_s"),
    "seifert.first_homology.busy_ms": ("ms", "lower", "homology wall_s, tail_ms"),
    "seifert.first_homology.self_ms": ("ms", "lower", "homology wall_s"),
    "seifert.prism_fibrations.calls": ("count", "lower", "audit-range wall_s"),
    "seifert.prism_fibrations.busy_ms": ("ms", "lower", "audit-range wall_s"),
    "seifert.remove_fiber.calls": ("count", "lower", "audit-range wall_s"),
    "seifert.remove_fiber.busy_ms": ("ms", "lower", "audit-range wall_s"),
    "seifert.normalize.calls": ("count", "lower", "audit-range wall_s"),
    "seifert.normalize.busy_ms": ("ms", "lower", "audit-range wall_s"),
    "montesinos.double_branched_cover.busy_ms": ("ms", "lower", "audit-range wall_s"),
    "montesinos.is_lens_space_symbol.busy_ms": ("ms", "lower", "audit-range wall_s"),
    "montesinos.ln_link.busy_ms": ("ms", "lower", "cli-session p50_ms, wall_s"),
    "orbifolds.case_analysis_report.busy_ms": ("ms", "lower", "audit-range wall_s"),
    "orbifolds.case_analysis_report.self_ms": ("ms", "lower", "audit-range wall_s"),
    "orbifolds.prism_case_analysis.busy_ms": ("ms", "lower", "audit-range wall_s"),
    "orbifolds.prism_case_analysis.self_ms": ("ms", "lower", "audit-range wall_s"),
    "orbifolds.horizontal_degree_solutions.busy_ms": ("ms", "lower", "audit-range wall_s"),
    "orbifolds.nonorientable_base_solutions.busy_ms": ("ms", "lower", "audit-range wall_s"),
    "orbifolds.chi_orb.calls": ("count", "lower", "audit-range wall_s"),
    "orbifolds.chi_orb.busy_ms": ("ms", "lower", "audit-range wall_s"),
    "orbifolds.chi_orb.calls_per_param": ("1", "lower", "audit-range wall_s"),
    "slopes.enumerate_constrained_slopes.calls": ("count", "lower", "audit-range wall_s"),
    "slopes.enumerate_constrained_slopes.busy_ms": ("ms", "lower", "audit-range wall_s"),
    "slopes.enumerate_constrained_slopes.kept_per_call": ("1", "higher", "audit-range wall_s"),
    "braids.twisted_torus_braid.busy_ms": ("ms", "lower", "cli-session p50_ms, wall_s"),
    "braids.closure_components.busy_ms": ("ms", "lower", "cli-session p50_ms, wall_s"),
    "covers.prism_verify.busy_ms": ("ms", "lower", "audit-range wall_s, p50_ms"),
    "covers.prism_verify.self_ms": ("ms", "lower", "audit-range wall_s"),
    "covers.prism_verify.ms_per_param": ("ms", "lower", "audit-range wall_s"),
    "covers.count_representations.calls": ("count", "lower", "cover-count wall_s"),
    "covers.count_representations.busy_ms": ("ms", "lower", "cover-count wall_s"),
    "covers.count_representations.max_ms": ("ms", "lower", "cover-count wall_s, tail_ms"),
    "covers.count_representations.hit_ratio": ("1", "higher", "cover-count wall_s"),
    "cli.import_ms": ("ms", "lower", "setup_s everywhere, cli-session p50_ms"),
    "cli.build_parser_ms": ("ms", "lower", "setup_s everywhere, cli-session p50_ms"),
    "cli.main.self_ms": ("ms", "lower", "audit-range wall_s, peak_rss_mb"),
    "cli.stdout_bytes": ("bytes", "lower", "audit-range wall_s, peak_rss_mb"),
    "trace.overhead_frac": ("1", "lower", "none: the cost of these spans"),
}


def _transform_bits(args, kwargs, result) -> int:
    _, transforms = result
    return max((abs(x).bit_length() for m in transforms for x in m.entries), default=0)


def _kept(args, kwargs, result) -> int:
    return len(result)


def _hits(args, kwargs, result) -> tuple[int, int]:
    presentation, degree = args[0], args[1]
    return result, math.factorial(degree) ** presentation.generators


def _rows(args, kwargs, result) -> int:
    return len(result["reports"])


# (layer, function, note on the result); cli.main is the root of each request
TARGETS = (
    ("exact", "smith_normal_form", _transform_bits),
    ("seifert", "first_homology", None),
    ("seifert", "prism_fibrations", None),
    ("seifert", "remove_fiber", None),
    ("seifert", "normalize", None),
    ("montesinos", "double_branched_cover", None),
    ("montesinos", "is_lens_space_symbol", None),
    ("montesinos", "ln_link", None),
    ("orbifolds", "case_analysis_report", None),
    ("orbifolds", "prism_case_analysis", None),
    ("orbifolds", "horizontal_degree_solutions", None),
    ("orbifolds", "nonorientable_base_solutions", None),
    ("orbifolds", "chi_orb", None),
    ("slopes", "enumerate_constrained_slopes", _kept),
    ("braids", "twisted_torus_braid", None),
    ("braids", "closure_components", None),
    ("covers", "prism_verify", _rows),
    ("covers", "count_representations", _hits),
    ("cli", "main", None),
)

IMPORT_SAMPLES = 5
BUILD_PARSER_SAMPLES = 20
WARMUP_S = 1.0


class DeadlineExceeded(BaseException):
    """Raised by the interval timer in a request past its deadline; a
    BaseException so that no handler inside the program swallows it."""


def _raise_deadline(signum, frame):
    raise DeadlineExceeded


class Tracer:
    """Spans kept in memory as ``[name, parent, start_ns, end_ns, note]``;
    ``parent`` is an index into ``spans`` or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def unwind(self) -> None:
        """Close spans a deadline interrupted mid-bookkeeping."""
        now = time.perf_counter_ns()
        for index in self.stack:
            self.spans[index][3] = self.spans[index][3] or now
        self.stack.clear()


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target wherever a ``prismvol`` module holds it; returns
    what to put back."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "prismvol"]
    restore = []
    for layer, function, note in TARGETS:
        original = getattr(sys.modules[f"prismvol.{layer}"], function)
        wrapper = tracer.wrap(f"{layer}.{function}", original, note)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    restore.append((module, attr, original))
    return restore


def uninstall(restore: list[tuple[object, str, object]]) -> None:
    for module, attr, original in restore:
        setattr(module, attr, original)


def call(cli, argv: tuple[str, ...], deadline: float) -> Outcome:
    """``prismvol.cli.main(argv)`` with captured output and a deadline."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    code, timed_out = None, False
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            code = cli.main(list(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        timed_out = True
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout, sys.stderr = saved
    stdout = out.getvalue().encode()
    return Outcome(timed_out, None if timed_out else code, err.getvalue().encode(),
                   hashlib.sha256(stdout).hexdigest(), lambda: stdout)


def run_pass(cli, requests, deadline: float, tracer: Tracer | None):
    outcomes = []
    start = time.perf_counter()
    for req in requests:
        outcomes.append(call(cli, req.argv, deadline))
        if tracer is not None:
            tracer.unwind()
    return outcomes, time.perf_counter() - start


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy/self/max time in ns, and the notes."""
    covered = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, _, start, end, note) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "busy": 0, "self": 0, "max": 0, "notes": []})
        s["calls"] += 1
        s["busy"] += end - start
        s["self"] += end - start - covered[i]
        s["max"] = max(s["max"], end - start)
        if note is not None:
            s["notes"].append(note)
    return stats


def pass_metrics(spans: list[list], stdout_bytes: int) -> dict[str, float]:
    stats = summarize(spans)
    empty = {"calls": 0, "busy": 0, "self": 0, "max": 0, "notes": []}

    def stat(function: str) -> dict:
        return stats.get(function, empty)

    params = sum(stat("covers.prism_verify")["notes"])
    hits = stat("covers.count_representations")["notes"]
    metrics = {}
    for name in PER_LAYER:
        function, _, key = name.rpartition(".")
        s = stat(function)
        if key == "calls":
            metrics[name] = s["calls"]
        elif key in ("busy_ms", "self_ms", "max_ms"):
            metrics[name] = s[key[:-3]] / 1e6
    metrics["exact.smith_normal_form.transform_bits"] = max(
        stat("exact.smith_normal_form")["notes"], default=0
    )
    chi = stat("orbifolds.chi_orb")
    metrics["orbifolds.chi_orb.calls_per_param"] = chi["calls"] / params if params else 0.0
    kept = stat("slopes.enumerate_constrained_slopes")
    metrics["slopes.enumerate_constrained_slopes.kept_per_call"] = (
        sum(kept["notes"]) / kept["calls"] if kept["calls"] else 0.0
    )
    metrics["covers.prism_verify.ms_per_param"] = (
        stat("covers.prism_verify")["busy"] / 1e6 / params if params else 0.0
    )
    candidates = sum(c for _, c in hits)
    metrics["covers.count_representations.hit_ratio"] = (
        sum(h for h, _ in hits) / candidates if candidates else 0.0
    )
    metrics["cli.stdout_bytes"] = stdout_bytes
    return metrics


def layer_self_ms(spans: list[list], root: str) -> dict[str, float]:
    """Self time per layer over the spans at or below each ``root`` span."""
    inside = [False] * len(spans)
    for i, (name, parent, *_) in enumerate(spans):
        inside[i] = name == root or (parent >= 0 and inside[parent])
    covered = [0] * len(spans)
    for i, (_, parent, start, end, _) in enumerate(spans):
        if inside[i] and parent >= 0 and inside[parent]:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, _, start, end, _) in enumerate(spans):
        if not inside[i]:
            continue
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + (end - start - covered[i]) / 1e6
    return totals


def import_ms(root: Path, env: dict[str, str]) -> float:
    """Median cumulative ``-X importtime`` of ``import prismvol.cli``."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import prismvol.cli"],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2] == " prismvol.cli":
                samples.append(int(parts[1]) / 1000)
    if len(samples) != IMPORT_SAMPLES:
        raise BenchError("-X importtime printed no line for prismvol.cli")
    return statistics.median(samples)


def build_parser_ms(cli) -> float:
    samples = []
    for _ in range(BUILD_PARSER_SAMPLES):
        start = time.perf_counter()
        cli.build_parser()
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def traced(workload, seed: int, seconds: float, root: Path, env: dict[str, str]):
    """Run the traced passes; returns (metrics, run record, units)."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import prismvol.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "prismvol").resolve():
        raise BenchError(f"prismvol was imported from {cli.__file__}, not {src}")
    signal.signal(signal.SIGALRM, _raise_deadline)
    requests = workload.requests(seed, 0)
    deadline = workload.deadline_s
    run_level = {"cli.import_ms": import_ms(root, env), "cli.build_parser_ms": build_parser_ms(cli)}

    start = time.perf_counter()
    done = 0
    while done == 0 or time.perf_counter() - start < WARMUP_S:
        call(cli, requests[done % len(requests)].argv, deadline)
        done += 1

    cache: dict = {}
    walls = {False: [], True: []}
    per_pass: list[dict] = []
    first_spans = None
    attempted = failed = incorrect = 0
    wrong: set[str] = set()
    started = time.perf_counter()
    order = (False, True)
    while True:
        for tracing in order:
            tracer = Tracer() if tracing else None
            restore = install(tracer) if tracing else []
            try:
                outcomes, wall = run_pass(cli, requests, deadline, tracer)
            finally:
                uninstall(restore)
            walls[tracing].append(wall)
            errors = pass_errors(workload, requests, outcomes, cache)
            wrong.update(f"{' '.join(r.argv)[:120]}: {e}" for r, e in zip(requests, errors)
                         if e not in (None, DEADLINE_MISSED))
            attempted += len(errors)
            failed += sum(e is not None for e in errors)
            incorrect += sum(e is not None and e != DEADLINE_MISSED for e in errors)
            if tracing:
                stdout_bytes = sum(len(o.stdout()) for o in outcomes)
                per_pass.append(pass_metrics(tracer.spans, stdout_bytes))
                if first_spans is None:
                    first_spans = tracer.spans
        order = order[::-1]
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(walls[True]) > seconds:
            break

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(run_level)
    untraced_s, traced_s = statistics.median(walls[False]), statistics.median(walls[True])
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    metrics = {name: metrics[name] for name in PER_LAYER}

    spans_path = root / ".perfbench" / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "parent", "start_ns", "end_ns", "note"],
        "spans": first_spans,
    }))
    prism_busy = summarize(first_spans).get("covers.prism_verify", {"busy": 0})["busy"] / 1e6
    prism_layers = layer_self_ms(first_spans, "covers.prism_verify")
    record = {
        "attempted": attempted, "failed": failed, "incorrect": incorrect,
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "pass_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "spans": str(spans_path.relative_to(root)), "span_count": len(first_spans),
        "layer_self_ms": layer_self_ms(first_spans, "cli.main"),
        "prism_verify_busy_ms": prism_busy,
        "prism_verify_layer_self_ms": prism_layers,
        "prism_verify_layer_self_sum_ms": sum(prism_layers.values()),
        # exact by construction; a mismatch would mean a broken span tree
        "prism_verify_self_sum_within_overhead": abs(sum(prism_layers.values()) - prism_busy)
        <= max(metrics["trace.overhead_frac"], 0.0) * prism_busy + 1e-6,
        "errors": sorted(wrong),
    }
    units = {name: spec[0] for name, spec in PER_LAYER.items()}
    return metrics, record, units
