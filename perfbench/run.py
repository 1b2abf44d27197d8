"""Service benchmark for the SOAR placement service.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 15 --trace 0

One client drives a fresh :class:`repro.service.api.PlacementService`
through ``submit()`` in a closed loop: a single thread sends the next
request only after the previous reply, so the service is never queued.
Requests are generated from ``--seed`` one at a time, outside the timer.

``--trace 0`` serves requests for ``--seconds`` of timed wall clock and
reports the end-to-end metrics.  ``--trace 1`` serves a fixed number of
requests twice from the same seed, once untraced and once with the spans
of :mod:`tracing` installed, and reports the per-layer metrics, the
tracing overhead and the per-backend kernel table of :mod:`kernels`.

Set-up is timed in this process and in :data:`SETUP_PROBES` fresh child
processes (``import repro`` only costs its full price once per process);
``setup_s`` is the median.  After the requests, :mod:`gate` checks every
answer; any failure exits with status 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Lines before it are ``name value unit`` rows and one
``provenance`` JSON row.

All files the benchmark writes (compiled kernels, journals, digests of
earlier runs) go under ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
WORKLOAD_NAMES = ("cold-solve", "warm-read", "steady-churn")
SETUP_PROBES = 4
#: p99 needs ten samples beyond it.
P99_MIN_REQUESTS = 1000
CHILD_TIMEOUT_S = 600
#: Timed wall clock per window of the windowed statistics.
WINDOW_S = 0.25
#: Requests per alternation between the untraced and the traced service.
TRACE_CHUNK = 25


def _percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty list."""
    rank = math.ceil(fraction * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_child(args: list[str]) -> str:
    completed = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"child {args} failed:\n{completed.stderr}")
    return completed.stdout


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #


def timed_setup(workload_name: str, seed: int):
    """Import, build, pre-fill and warm up; returns (workload, service, times).

    Generating the workload's requests is the load generator's work and is
    left out of the times.
    """
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: part of set-up)

    imported = time.perf_counter()
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {SRC}")
    from repro.topology.binary_tree import bt_network
    from workloads import WORKLOADS

    cls = WORKLOADS[workload_name]
    tree_start = time.perf_counter()
    tree = bt_network(cls.tree_size)
    tree_s = time.perf_counter() - tree_start
    workload = cls(seed, WORKDIR, tree)
    build_start = time.perf_counter()
    service = workload.make_service()
    prefill_start = time.perf_counter()
    workload.prefill(service)
    warmup_start = time.perf_counter()
    workload.warmup(service)
    end = time.perf_counter()
    times = {
        "setup_s": (imported - start) + tree_s + (end - build_start),
        "import_s": imported - start,
        "prefill_s": warmup_start - prefill_start,
        "warmup_s": end - warmup_start,
    }
    return workload, service, times


# --------------------------------------------------------------------------- #
# the closed loop
# --------------------------------------------------------------------------- #


class Outcome:
    """What one pass over the request stream produced."""

    def __init__(self) -> None:
        self.records: list = []
        self.latencies: list[float] = []
        self.by_class: dict[str, list[float]] = {}
        self.failures: Counter[str] = Counter()
        self.drain_failed_tenants = 0
        self.timed_s = 0.0
        self.attempted = 0
        #: (completed requests, timed seconds) at each window boundary.
        self.window_marks: list[tuple[int, float]] = [(0, 0.0)]

    def windows(self) -> list[tuple[list[float], float]]:
        """(latencies, timed seconds) of each whole window."""
        return [
            (self.latencies[n0:n1], t1 - t0)
            for (n0, t0), (n1, t1) in zip(self.window_marks, self.window_marks[1:])
            if n1 > n0
        ]


def _more(outcome: Outcome, seconds: float | None, count: int | None) -> bool:
    if count is not None:
        return outcome.attempted < count
    # Run on past ``seconds`` (up to a cap) until p99 has enough samples.
    return outcome.timed_s < seconds or (
        len(outcome.latencies) < P99_MIN_REQUESTS and outcome.timed_s < 4 * seconds
    )


def serve(
    workload,
    service,
    *,
    seconds: float | None = None,
    count: int | None = None,
    into: Outcome | None = None,
) -> Outcome:
    """Send requests for ``seconds`` of timed wall clock, or ``count`` more requests."""
    from gate import STAT_FIELDS, Record
    from repro.exceptions import ReproError
    from repro.service.api import (
        AdmitResponse,
        DrainRequest,
        DrainResponse,
        ReleaseResponse,
        SolveResponse,
        StatsResponse,
        SweepResponse,
    )

    success = (
        SolveResponse, SweepResponse, AdmitResponse, ReleaseResponse, DrainResponse,
        StatsResponse,
    )
    outcome = Outcome() if into is None else into
    if count is not None:
        count += outcome.attempted
    stats = service.cache.stats
    state = service.state
    clock = time.perf_counter
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    try:
        while _more(outcome, seconds, count):
            if outcome.timed_s - outcome.window_marks[-1][1] >= WINDOW_S:
                outcome.window_marks.append((len(outcome.latencies), outcome.timed_s))
                # Move to the next core: each run samples every core's load.
                os.sched_setaffinity(0, {cpus[len(outcome.window_marks) % len(cpus)]})
            request = workload.next_request()
            available = state.available()
            before_drain = None
            if isinstance(request, DrainRequest):
                tracker = state.tracker
                before_drain = (tracker.residual_capacities(), tracker.drained, state.tenants())
            before = [getattr(stats, field) for field in STAT_FIELDS]
            response = None
            start = clock()
            try:
                response = service.submit(request)
            except ReproError as exc:
                elapsed = clock() - start
                failure = type(exc).__name__
            else:
                elapsed = clock() - start
                failure = None if isinstance(response, success) else type(response).__name__
            outcome.timed_s += elapsed
            outcome.attempted += 1
            if failure is not None:
                outcome.failures[failure] += 1
                response = None
            else:
                outcome.latencies.append(elapsed)
                kind = getattr(response, "cache_source", None)
                if isinstance(response, AdmitResponse):
                    kind = "admit"
                elif isinstance(response, ReleaseResponse):
                    kind = "release"
                elif isinstance(response, DrainResponse):
                    outcome.drain_failed_tenants += len(response.failed)
                if kind is not None:
                    outcome.by_class.setdefault(kind, []).append(elapsed)
            workload.observe(request, response)
            if hasattr(request, "loads"):
                # Keep no loads mapping alive: the record's ``loads`` tuple is
                # what the gate re-solves from.
                request = dataclasses.replace(request, loads={})
            outcome.records.append(
                Record(
                    request=request,
                    response=response,
                    loads=workload.last_loads,
                    available=available,
                    deltas=tuple(
                        getattr(stats, field) - value for field, value in zip(STAT_FIELDS, before)
                    ),
                    before_drain=before_drain,
                )
            )
    finally:
        os.sched_setaffinity(0, allowed)
    return outcome


# --------------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------------- #


def check_outcome(workload, outcome: Outcome, doctor: int | None) -> list[str]:
    """Gate checks 1 and 3, plus the cross-run digest check (2)."""
    import gate
    from repro.service.api import AdmitResponse, SolveResponse

    errors = check_digest(workload, gate.payload_checkpoints(outcome.records))
    if doctor is not None:
        # Self-test of the gate: flip one node of one placement answer.
        placed = [
            r for r in outcome.records if isinstance(r.response, (SolveResponse, AdmitResponse))
        ]
        record = placed[doctor % len(placed)]
        flipped = record.response.blue_nodes ^ {workload.tree.switches[0]}
        record.response = dataclasses.replace(record.response, blue_nodes=flipped)
    errors += gate.check_placements(gate.ColdOracle(workload.tree), outcome.records)
    errors += gate.reconcile_stats(outcome.records)
    return errors


def check_digest(workload, checkpoints: list[str]) -> list[str]:
    """Compare payload digests with every earlier run of this seed."""
    path = WORKDIR / "digests" / f"{workload.name}-{workload.seed}.json"
    previous: list[str] = json.loads(path.read_text()) if path.exists() else []
    common = min(len(previous), len(checkpoints))
    if previous[:common] != checkpoints[:common]:
        at = next(i for i in range(common) if previous[i] != checkpoints[i])
        return [
            f"response payloads differ from an earlier run of seed {workload.seed} "
            f"within requests {at * 64}..{(at + 1) * 64}"
        ]
    if len(checkpoints) > len(previous):
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = path.with_suffix(f".{os.getpid()}.tmp")
        staging.write_text(json.dumps(checkpoints))
        os.replace(staging, path)
    return []


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #


def provenance() -> dict:
    import numpy

    from repro.core.engine_compiled import DISABLE_ENV, compiled_available

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "compiled_available": compiled_available(),
        DISABLE_ENV: os.environ.get(DISABLE_ENV, ""),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _ms(values: list[float], fraction: float) -> float:
    return _percentile(sorted(values), fraction) * 1e3 if values else 0.0


def setup_metrics(samples: list[dict]) -> dict[str, float]:
    return {
        key: statistics.median(sample[key] for sample in samples)
        for key in ("setup_s", "import_s", "prefill_s", "warmup_s")
    }


def end_to_end(outcome: Outcome, setup: dict[str, float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics, from the less contended windows of the run.

    Co-tenants slow a core by up to ~1.8x for spans of a fraction of a
    second to minutes, so whole-run figures move with how much of a run
    fell in a slow span.  Over windows of :data:`WINDOW_S`, throughput is
    the 90th percentile of the per-window throughputs, p50 the 10th
    percentile of the per-window medians, and p98 is taken over the
    requests of the fastest three quarters of the windows.  The tail is
    p98 rather than p99: p99 sits on the full garbage collections (about
    1% of cold-solve requests, ~50 ms each) and jumps between them and the
    requests below from run to run.
    """
    windows = outcome.windows()
    window_rps = [len(latencies) / seconds for latencies, seconds in windows]
    window_p50 = [_percentile(sorted(latencies), 0.5) for latencies, _ in windows]
    fastest = sorted(range(len(windows)), key=window_rps.__getitem__, reverse=True)
    tail = [
        latency for index in fastest[: len(windows) * 3 // 4] for latency in windows[index][0]
    ]
    return {
        "throughput_rps": (statistics.quantiles(window_rps, n=10)[8], "1/s"),
        "latency_p50_ms": (statistics.quantiles(window_p50, n=10)[0] * 1e3, "ms"),
        "latency_p98_ms": (_ms(tail, 0.98), "ms"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def emit(rows: dict, extra_rows: dict, result: dict) -> None:
    for name, (value, unit) in {**rows, **extra_rows}.items():
        print(f"{name} {value!r} {unit}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(json.dumps(result))


# --------------------------------------------------------------------------- #
# the two modes
# --------------------------------------------------------------------------- #


def run_untraced(args, workload, service, setup) -> int:
    outcome = serve(workload, service, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = check_outcome(workload, outcome, args.doctor_response)
    if len(outcome.latencies) < P99_MIN_REQUESTS:
        errors.append(
            f"only {len(outcome.latencies)} requests completed; "
            f"latency_p99_ms needs {P99_MIN_REQUESTS}"
        )
    rows = end_to_end(outcome, setup, peak_rss_mb)
    extra = {
        "latency_p99_ms": (_ms(outcome.latencies, 0.99), "ms"),
        "run.throughput_rps": (len(outcome.latencies) / outcome.timed_s, "1/s"),
        "run.latency_p50_ms": (_ms(outcome.latencies, 0.5), "ms"),
        "windows": (len(outcome.windows()), "count"),
        "failed_frac": (sum(outcome.failures.values()) / outcome.attempted, "1"),
        "completed": (len(outcome.latencies), "count"),
        "drain.failed_tenants": (outcome.drain_failed_tenants, "count"),
        **{f"failed.{name}": (n, "count") for name, n in sorted(outcome.failures.items())},
    }
    return finish(outcome, errors, rows, extra)


def run_traced(args, workload, service, setup) -> int:
    import gate
    import kernels
    import tracing

    # Two services from one seed serve the same stream in alternating
    # chunks, the second one traced, so both see the same machine noise.
    traced_workload, traced_service, _ = timed_setup(args.workload, args.seed)
    plain, traced = Outcome(), Outcome()
    tracer = tracing.Tracer()
    try:
        evictions_before = traced_service.cache.stats.evictions
        journal = traced_workload.journal
        journal_bytes_before = journal.path.stat().st_size if journal else 0
        while plain.attempted < workload.trace_requests:
            count = min(TRACE_CHUNK, workload.trace_requests - plain.attempted)
            serve(workload, service, count=count, into=plain)
            tracer.install()
            try:
                serve(traced_workload, traced_service, count=count, into=traced)
            finally:
                tracer.uninstall()
        if journal is not None:
            journal.flush()
        journal_bytes = (journal.path.stat().st_size if journal else 0) - journal_bytes_before
        evictions = traced_service.cache.stats.evictions - evictions_before
    finally:
        traced_workload.close()
    errors = check_outcome(workload, plain, args.doctor_response)

    if gate.payload_checkpoints(plain.records) != gate.payload_checkpoints(traced.records):
        errors.append("traced and untraced runs of one seed answered differently")
    summary = tracing.layer_summary(tracer.spans)
    served = tracing.served_from_spans(summary)
    if served != gate.served_counts(traced.records):
        errors.append(
            f"served counts at the layer boundaries {served} do not reconcile with "
            f"CacheStats {gate.served_counts(traced.records)}"
        )
    submit_total = sum(summary[tracing.ROOT]["durations"])
    layers_total = sum(entry["busy_s"] for entry in summary.values())
    if abs(layers_total - submit_total) > 0.05 * submit_total:
        errors.append(
            f"layer self times sum to {layers_total:.6f} s, submit spans to {submit_total:.6f} s"
        )
    table, kernel_errors = kernels.kernel_table(args.seed, WORKDIR)
    errors += kernel_errors

    rows = layer_metrics(summary, served, gate.stat_totals(traced.records), evictions, journal_bytes)
    rows.update(
        {
            f"latency.{kind}.p50_ms": (_ms(plain.by_class.get(kind, []), 0.5), "ms")
            for kind in ("memo", "table", "repair", "gather", "admit", "release")
        }
    )
    rows.update(
        {
            "setup.import_s": (setup["import_s"], "s"),
            "setup.prefill_s": (setup["prefill_s"], "s"),
            "setup.warmup_s": (setup["warmup_s"], "s"),
            "trace.overhead_frac": (traced.timed_s / plain.timed_s - 1.0, "1"),
            "failed_frac": (sum(plain.failures.values()) / plain.attempted, "1"),
            "drain.failed_tenants": (plain.drain_failed_tenants, "count"),
        }
    )
    rows.update({name: (value, "ms") for name, value in table.items()})
    extra = {f"failed.{name}": (n, "count") for name, n in sorted(plain.failures.items())}
    return finish(plain, errors, rows, extra)


def layer_metrics(summary, served, stats_delta, evictions, journal_bytes) -> dict:
    def entry(name: str) -> dict:
        return summary.get(name, {"calls": 0, "busy_s": 0.0, "durations": []})

    def busy(name: str) -> tuple[float, str]:
        return (entry(name)["busy_s"] * 1e3, "ms")

    def calls(name: str) -> tuple[int, str]:
        return (entry(name)["calls"], "count")

    def p50(name: str) -> tuple[float, str]:
        return (_ms(entry(name)["durations"], 0.5), "ms")

    submit_ms = sum(entry("api")["durations"]) * 1e3
    lookups = stats_delta["solution_hits"] + stats_delta["table_hits"] + stats_delta["misses"]
    rows = {}
    for layer in ("gather", "repair"):
        rows[f"core.{layer}.calls"] = calls(f"core.{layer}")
        rows[f"core.{layer}.busy_ms"] = busy(f"core.{layer}")
        rows[f"core.{layer}.p50_ms"] = p50(f"core.{layer}")
    for layer in ("color", "cost"):
        rows[f"core.{layer}.calls"] = calls(f"core.{layer}")
        rows[f"core.{layer}.busy_ms"] = busy(f"core.{layer}")
    rows["tree.fingerprint.calls"] = calls("tree.fingerprint")
    rows["tree.fingerprint.busy_ms"] = busy("tree.fingerprint")
    rows["tree.with_loads.busy_ms"] = busy("tree.with_loads")
    for method in ("solution", "lookup", "store", "store_solution", "repair_candidate"):
        rows[f"cache.{method}.busy_ms"] = busy(f"cache.{method}")
    rows["cache.hit_rate"] = (
        (stats_delta["solution_hits"] + stats_delta["table_hits"]) / lookups if lookups else 0.0,
        "1",
    )
    rows["cache.repair_yield"] = (
        stats_delta["repairs"] / stats_delta["repair_hits"] if stats_delta["repair_hits"] else 0.0,
        "1",
    )
    rows["cache.evictions"] = (evictions, "count")
    for source, value in served.items():
        rows[f"served.{source}"] = (value, "count")
    rows["journal.append.calls"] = calls("journal.append")
    rows["journal.append.busy_ms"] = busy("journal.append")
    rows["journal.bytes"] = (journal_bytes, "bytes")
    rows["state.calls"] = calls("state")
    rows["state.busy_ms"] = busy("state")
    rows["api.self_ms"] = busy("api")
    rows["api.self_frac"] = (entry("api")["busy_s"] * 1e3 / submit_ms if submit_ms else 0.0, "1")
    return rows


def finish(outcome: Outcome, errors: list[str], rows: dict, extra: dict) -> int:
    for message in errors[:20]:
        print(f"gate: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": outcome.attempted,
        "failed": sum(outcome.failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()},
    }
    emit(rows, extra, result)
    return 0 if not errors else 1


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--doctor-response",
        type=int,
        default=None,
        metavar="N",
        help="flip one blue node of the N-th placement answer before the gate "
        "(the gate must then fail)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    # Keep the compiled-kernel cache and the compiler's temporary files
    # inside the checkout.
    os.environ["REPRO_KERNEL_CACHE"] = str(WORKDIR / "kernels")
    os.environ["TMPDIR"] = str(WORKDIR / "tmp")
    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        workload, _, times = timed_setup(args.workload, args.seed)
        workload.close()
        print(json.dumps(times))
        return 0
    # Build the compiled kernels (first run in a checkout) before timing.
    _run_child(["-c", "import repro"])
    samples = [
        json.loads(
            _run_child(
                [__file__, "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
            ).splitlines()[-1]
        )
        for _ in range(SETUP_PROBES)
    ]
    workload, service, times = timed_setup(args.workload, args.seed)
    try:
        setup = setup_metrics(samples + [times])
        if args.trace:
            return run_traced(args, workload, service, setup)
        return run_untraced(args, workload, service, setup)
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
