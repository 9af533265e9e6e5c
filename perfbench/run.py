"""Benchmark of the prismvol command line, one workload and seed per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit-range --seed 1 --seconds 25 --trace 0

With ``--trace 0`` one client drives ``python -m prismvol`` in a closed loop:
one child process at a time, the next launched only after the previous one
exits.  The workload's requests form a pass; passes repeat while another one
fits in ``--seconds`` (and until the run holds enough requests for a tail).
Timings are scaled to a reference machine speed (``spawner.py``, README.md).
Every output is checked after the timed loop and the end-to-end metrics are
printed.  With ``--trace 1`` the same inputs go through ``prismvol.cli.main``
in this process instead, with spans around each layer's public functions
(see ``tracing.py``), and the per-layer metrics are printed.

The program comes from ``src/`` of the checkout, never from an installed
copy.  Scratch files, run records and spans go to ``.perfbench/``.  The last
stdout line is the JSON result; the lines before it repeat each metric with
its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import DEADLINE_MISSED, WORKLOADS, BenchError, Outcome, pass_errors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Metric name -> (unit, better, bound).  BENCHMARK.json lists the same set.
# The spread (interquartile range over median) between runs with different
# seeds stayed within each bound, and under a third of it except for wall_s,
# ok_frac and tail_ms: on homology the number of SNF blow-ups a seed draws
# varies, and in slow phases the scaling under-corrects requests that compute
# for seconds.  See README.md.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "p50_ms": ("ms", "lower", 0.2),
    "tail_ms": ("ms", "lower", 0.25),
    "ok_frac": ("1", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

SETUP_CODE = "import prismvol.cli as cli; cli.build_parser()"
SETUP_SAMPLES = 7
# the tail is the latency with ten requests beyond it, so a run needs eleven
MIN_REQUESTS = 11
# outputs up to this size are kept in memory for the checks; larger ones
# stay on disk, once per distinct digest, until the checks have run
SMALL_OUTPUT = 1 << 20
# spawner.probe() on an idle vCPU of the machine the benchmark was defined on
PROBE_REFERENCE_S = 0.010
# a run that takes this long is abandoned without a result
HARD_LIMIT_S = 150.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PRISMVOL_FORMAT", None)  # it would flip the default output format
    env["PYTHONPATH"] = str(SRC)
    return env


def tail(values: list[float]) -> tuple[float, float]:
    """The value with exactly ten larger-ranked values beyond it, and its
    percentile (the share of values at or below it)."""
    s = sorted(values)
    if len(s) < MIN_REQUESTS:
        raise BenchError(f"{len(s)} requests are too few for a tail")
    return s[-MIN_REQUESTS], 100.0 * (len(s) - MIN_REQUESTS + 1) / len(s)


def check_source() -> None:
    """Fail unless ``src/prismvol`` exists and the children import it."""
    if not (SRC / "prismvol" / "cli.py").is_file():
        raise BenchError(f"no src/prismvol/cli.py under {ROOT}")
    # also compiles the bytecode the timed children will load
    found = subprocess.run(
        [sys.executable, "-c", "import prismvol.cli as c, sys; sys.stdout.write(c.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
    )
    if found.returncode != 0 or Path(found.stdout).resolve().parent != (SRC / "prismvol").resolve():
        raise BenchError(f"children do not import prismvol from {SRC}: {found.stderr.strip()}")


@dataclass(frozen=True)
class Reading:
    """One finished child: timing, exit, output digest and peak RSS.

    ``latency`` is scaled to the reference speed, ``raw_latency`` is not, and
    ``probe_s`` holds the probes taken at launch and exit.  ``output`` holds
    a small output; a large one stays on disk at that path.
    """

    latency: float
    raw_latency: float
    probe_s: tuple[float, float]
    timed_out: bool
    exit_code: int | None
    stderr: bytes
    digest: str
    size: int
    output: bytes | Path
    maxrss_kb: int
    spawner_kb: int

    def outcome(self) -> Outcome:
        output = self.output
        load = (lambda: output) if isinstance(output, bytes) else output.read_bytes
        return Outcome(self.timed_out, self.exit_code, self.stderr, self.digest, load)


class Spawner:
    """The child-launching helper process (``spawner.py``).

    Children inherit the RSS of the process that spawns them in their peak
    RSS reading, so they are spawned from this small helper rather than from
    this process; the helper's RSS is recorded next to every reading.  The helper
    also probes the machine's speed around each child.
    """

    def __enter__(self) -> "Spawner":
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-I", str(Path(__file__).with_name("spawner.py")),
             repr(PROBE_REFERENCE_S)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv: list[str], deadline: float) -> Reading:
        """Run one child to exit or deadline; hash its stdout as a stream."""
        out, err = WORK / "stdout.tmp", WORK / "stderr.tmp"
        fields = [str(deadline), str(out), str(err), sys.executable, *argv]
        self.proc.stdin.write("\0".join(fields).encode() + b"\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 8:
            raise BenchError("the spawner stopped")
        scaled, latency, code, timed_out, maxrss_kb, spawner_kb, before, after = reply
        digest = hashlib.sha256()
        size = 0
        with open(out, "rb") as f:
            while chunk := f.read(1 << 16):
                digest.update(chunk)
                size += len(chunk)
        sha = digest.hexdigest()
        if size <= SMALL_OUTPUT:
            output = out.read_bytes()
        else:
            output = WORK / f"out-{sha}.bin"
            out.replace(output)
        return Reading(
            latency=float(scaled), raw_latency=float(latency),
            probe_s=(float(before), float(after)),
            timed_out=timed_out == b"1",
            exit_code=None if timed_out == b"1" else int(code),
            stderr=err.read_bytes(), digest=sha, size=size, output=output,
            maxrss_kb=int(maxrss_kb), spawner_kb=int(spawner_kb),
        )


def measure_setup(spawner: Spawner) -> list[float]:
    """Cold starts: interpreter, ``import prismvol.cli``, ``build_parser()``."""
    times = []
    for _ in range(SETUP_SAMPLES):
        reading = spawner.run(["-c", SETUP_CODE], HARD_LIMIT_S)
        if reading.exit_code != 0:
            raise BenchError(f"cold start failed: {reading.stderr[-300:]!r}")
        times.append(reading.latency)
    return times


def run_closed_loop(spawner: Spawner, workload, seed: int, seconds: float):
    passes, spent = [], []
    started = time.perf_counter()
    index = 0
    while True:
        requests = workload.requests(seed, index)
        readings = [
            spawner.run(["-m", "prismvol", *r.argv], workload.deadline_s) for r in requests
        ]
        passes.append((requests, readings, sum(r.latency for r in readings)))
        index += 1
        elapsed = time.perf_counter() - started
        spent.append(elapsed - sum(spent))
        if elapsed > HARD_LIMIT_S:
            raise BenchError(f"run exceeded {HARD_LIMIT_S} s")
        count = sum(len(p[1]) for p in passes)
        if count >= MIN_REQUESTS and elapsed + statistics.median(spent) > seconds:
            return passes


def src_facts() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            ).stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def untraced(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    with Spawner() as spawner:
        setup = measure_setup(spawner)
        passes = run_closed_loop(spawner, workload, seed, seconds)

    cache: dict = {}
    latencies, walls, requests_log = [], [], []
    failed = incorrect = 0
    rss_measured, rss_unmeasured = [], 0
    for pass_index, (requests, readings, wall) in enumerate(passes):
        errors = pass_errors(workload, requests, [r.outcome() for r in readings], cache)
        walls.append(wall)
        for req, reading, err in zip(requests, readings, errors):
            latencies.append(reading.latency)
            failed += err is not None
            incorrect += err is not None and err != DEADLINE_MISSED
            # a killed child's peak depends on when the kill came
            measured = reading.maxrss_kb > reading.spawner_kb and not reading.timed_out
            if measured:
                rss_measured.append(reading.maxrss_kb)
            else:
                rss_unmeasured += 1
            requests_log.append({
                "pass": pass_index, "argv": list(req.argv),
                "latency_s": reading.latency, "raw_latency_s": reading.raw_latency,
                "probe_s": reading.probe_s, "exit": reading.exit_code,
                "stdout_bytes": reading.size, "stdout_sha256": reading.digest,
                "maxrss_kb": reading.maxrss_kb if measured else None,
                "spawner_rss_kb": reading.spawner_kb, "error": err,
            })
    for path in {r.output for _, readings, _ in passes for r in readings}:
        if isinstance(path, Path):
            path.unlink()
    if not rss_measured:
        raise BenchError("no child's peak RSS exceeded the spawner's own RSS")

    tail_s, tail_pct = tail(latencies)
    attempted = len(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "p50_ms": 1000 * statistics.median(latencies),
        "tail_ms": 1000 * tail_s,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": max(rss_measured) / 1024,
    }
    record = {
        "attempted": attempted, "failed": failed, "incorrect": incorrect,
        "passes": len(passes), "setup_samples_s": setup, "pass_wall_s": walls,
        "tail_percentile": tail_pct, "tail_samples": attempted,
        "rss_readings": len(rss_measured), "rss_unmeasured": rss_unmeasured,
        "requests": requests_log,
        "errors": [f"{' '.join(q['argv'])[:120]}: {q['error']}" for q in requests_log
                   if q["error"] not in (None, DEADLINE_MISSED)],
    }
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        check_source()
        WORK.mkdir(exist_ok=True)
        if args.trace:
            import tracing  # imports prismvol into this process

            metrics, record, units = tracing.traced(
                workload, args.seed, args.seconds, ROOT, child_env()
            )
        else:
            metrics, record = untraced(workload, args.seed, args.seconds)
            units = {name: spec[0] for name, spec in END_TO_END.items()}
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    record.update(src_facts(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, metrics=metrics)
    path = WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for error in record.pop("errors")[:5]:
        print(f"perfbench: {error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"record: {path.relative_to(ROOT)}")
    result = {
        "correct": record["incorrect"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
