"""fiatcells benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 bench/run.py --workload cartan-sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports fiatcells from ./src and
nowhere else.  Load is a closed loop with one caller in one process: each
op starts when the previous one has finished.  A run goes over the
workload's seeded inputs pass after pass for about ``--seconds`` (at least
one whole pass), so every run holds nearly the same mix of ops.  Op times
of the in-process and oracle workloads are calibrated against the host's
speed (see calibration.py); the unscaled values are in the report under
"raw".

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every op runs once plain and once under spans, and the
last line carries the per-layer metrics, including the tracing overhead
measured between the two.  The line before it is the full report
(provenance, sample counts, error_rate and the oracle timings); the same
report, with the spans of a traced run, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from calibration import Calibration
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
CALIBRATION_EDGE = 25  # calibration samples before set-up and after the last op
SUBPROCESS_TIMEOUT = 150

END_TO_END = ["setup_s", "wall_s", "ops_per_s", "op_p50_s", "op_p90_s", "peak_rss_mb"]
# name -> unit; a "_s" metric is the mean self time of the spans of that name
PER_LAYER = {
    "model.load_s": "s", "model.validate_s": "s", "model.serialize_s": "s",
    "model.morphs": "count", "model.composable_triples": "count", "model.summands": "count",
    "cells.cells_s": "s", "cells.classify_s": "s", "cells.two_sided_classes": "count",
    "analysis.m_table_s": "s", "analysis.cartan_s": "s", "analysis.lint_s": "s",
    "analysis.m_entries": "count",
    "report.analyze_s": "s", "report.render_s": "s", "report.redundancy": "ratio",
    "constructors.make_ca_s": "s", "constructors.make_hecke_s": "s",
    "constructors.rs_cell_check_s": "s",
    "klbasis.canonical_basis_s": "s", "klbasis.structure_constants_s": "s",
    "klbasis.bar_invariance_s": "s", "klbasis.structure_terms": "count",
    "bimodule.realize_ca_s": "s", "bimodule.projective_s": "s", "bimodule.tensor_s": "s",
    "bimodule.decompose_s": "s", "bimodule.hom_s": "s", "bimodule.tensors": "count",
    "bimodule.max_tensor_dim": "count", "bimodule.max_hom_unknowns": "count",
    "cli.interp_start_s": "s", "cli.import_s": "s", "cli.command_s": "s",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
}
REDUNDANT_LAYERS = ["model.validate", "cells.cells", "cells.classify", "analysis.m_table",
                    "analysis.cartan", "analysis.lint"]


def die(message: str) -> None:
    print(f"bench: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_child(args: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], input=stdin or "", capture_output=True, encoding="utf-8",
        env=child_env(), cwd=ROOT, timeout=SUBPROCESS_TIMEOUT,
    )


# A set-up: a fresh interpreter imports fiatcells from ./src, then builds
# one pass of the workload's inputs and hands them over as JSON.  Building
# them in the child keeps their memory out of this process's peak RSS.
SETUP_CHILD = """import json, sys
import fiatcells
sys.path.insert(0, sys.argv[1])
import inputs
print(fiatcells.__file__)
print(json.dumps(inputs.BUILDERS[sys.argv[2]](int(sys.argv[3]))))
"""


def setup(workload: str, seed: int) -> list:
    proc = run_child(["-c", SETUP_CHILD, str(BENCH), workload, str(seed)])
    if proc.returncode != 0:
        die(f"set-up failed: {proc.stderr.strip()[-600:]}")
    origin, items = proc.stdout.split("\n", 1)
    if not Path(origin).resolve().is_relative_to(SRC.resolve()):
        die(f"fiatcells was imported from {origin}, not from {SRC}")
    return json.loads(items)


# ---------------------------------------------------------------------------
# workloads: start() prepares this process once inputs exist; op(item, tracer)
# runs one op and returns (latency in seconds, error or None)


class InProcess:
    """parse -> report_analyze -> render, in this process.  Calibration
    samples come from a timer over the whole run and are kept out of the
    ops' latencies."""

    calibration = "timer"

    def __init__(self, cal: Calibration, check):
        self.cal, self.check = cal, check

    def start(self) -> None:
        sys.path.insert(0, str(SRC))
        import fiatcells

        if not Path(fiatcells.__file__).resolve().is_relative_to(SRC.resolve()):
            die(f"fiatcells was imported from {fiatcells.__file__}, not from {SRC}")
        self.fc = fiatcells

    def op(self, item: dict, tr: Tracer):
        fc = self.fc
        paused = self.cal.paused
        with tr.span("op"):
            start = time.perf_counter()
            with tr.span("model.load"):
                cat = fc.load_multicat(item["text"])
            with tr.span("report.analyze"):
                doc = fc.report_analyze(cat)
            with tr.span("report.render"):
                text = fc.render_analyze_text(doc)
            latency = time.perf_counter() - start
        latency -= self.cal.paused - paused
        error = self.check(doc, text, item)
        if tr.enabled:
            self.layers(item, tr)
        return latency, error

    def layers(self, item: dict, tr: Tracer) -> None:
        """Each layer report_analyze uses, called once on a fresh parse."""
        fc = self.fc
        doc = json.loads(item["text"])
        tr.count("model.morphs", len(doc["morphisms"]))
        tr.count("model.composable_triples", composable_triples(doc))
        tr.count("model.summands", sum(len(e["out"]) for e in doc["compose"]))
        cat = fc.load_multicat(item["text"])
        with tr.span("model.validate"):
            fc.validate(cat)
        with tr.span("cells.cells"):
            two_sided = [fc.cells(cat, kind) for kind in ("left", "right", "two-sided")][-1]
        tr.count("cells.two_sided_classes", len(two_sided.classes))
        with tr.span("cells.classify"):
            regular = [
                q for q in range(len(two_sided.classes))
                if fc.classify_two_sided(cat, q).strongly_regular
            ]
        with tr.span("analysis.m_table"):
            tables = [fc.m_table(cat, q) for q in regular]
        tr.count("analysis.m_entries", sum(len(t.m) for t in tables))
        with tr.span("analysis.cartan"):
            for q in regular:
                fc.cartan_blocks(cat, q)
        with tr.span("analysis.lint"):
            fc.fiat_lint(cat)
        with tr.span("model.serialize"):
            fc.serialize_multicat(cat)


def composable_triples(doc: dict) -> int:
    """Triples (h, g, f) of non-identities with h∘g and g∘f composable."""
    ends = [(m["src"], m["tgt"]) for m in doc["morphisms"] if not m.get("identity")]
    into = {o: sum(t == o for _, t in ends) for o in doc["objects"]}
    out_of = {o: sum(s == o for s, _ in ends) for o in doc["objects"]}
    return sum(into[s] * out_of[t] for s, t in ends)


class Oracles:
    """Each op in a child forked from a process that imported fiatcells and
    ran nothing else, so no memo survives from one op to the next; the
    child times the op after the import and samples calibration inside it."""

    calibration = "child"

    def __init__(self, cal: Calibration):
        self.cal = cal
        self.parts: list[dict] = []  # step timings of the plain ops

    def start(self) -> None:
        # a forked child inherits one thread; keep numpy's BLAS pool from
        # starting others in the parent (no oracle op calls BLAS)
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        sys.path.insert(0, str(SRC))
        import oracle_ops

        self.run_op = oracle_ops.run_op

    def op(self, spec: dict, tr: Tracer):
        start = time.perf_counter()
        read_fd, write_fd = os.pipe()
        with tr.span("op"):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    payload = json.dumps(self.run_op(spec, tr.enabled))
                    with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                        fh.write(payload)
                    code = 0
                except Exception:
                    traceback.print_exc()
                finally:
                    os._exit(code)
            os.close(write_fd)
            with os.fdopen(read_fd, encoding="utf-8") as fh:
                if not select.select([fh], [], [], SUBPROCESS_TIMEOUT)[0]:
                    os.kill(pid, signal.SIGKILL)
                payload = fh.read()
            _, status = os.waitpid(pid, 0)
            if status != 0 or not payload:
                return time.perf_counter() - start, f"{spec['op']}: child ended with status {status}"
            result = json.loads(payload)
            tr.adopt(result)
        self.cal.samples += result["calibration"]
        if not tr.enabled:
            self.parts += result["parts"]
        return result["seconds"], result["error"]


CLI_ENTRY = "import sys; from fiatcells.cli import main; sys.argv[0] = 'fiatcells'; main()"
# The same entry point, stamping interpreter-ready, imported and done times
# (CLOCK_MONOTONIC) on the last stderr line.
CLI_TRACED = """import time; t0 = time.perf_counter()
import json, sys
from fiatcells.cli import main
t1 = time.perf_counter()
sys.argv[0] = 'fiatcells'
try:
    main()
except SystemExit as e:
    code = e.code
sys.stdout.flush()
sys.stderr.write('\\nBENCH-STAMPS ' + json.dumps([t0, t1, time.perf_counter()]))
sys.exit(code)
"""


class Cli:
    """One `fiatcells` command per op, as a subprocess, timed from spawn to
    exit.  Its times are process start-up and import, which the calibration
    loop does not model, so they are reported unscaled."""

    calibration = None

    def start(self) -> None:
        pass

    def op(self, cmd: dict, tr: Tracer):
        start = time.perf_counter()
        proc = run_child(["-c", CLI_TRACED if tr.enabled else CLI_ENTRY, *cmd["argv"]], cmd["stdin"])
        end = time.perf_counter()
        err = proc.stderr
        if tr.enabled and "\nBENCH-STAMPS " in err:
            err, stamps = err.rsplit("\nBENCH-STAMPS ", 1)
            t0, t1, t2 = json.loads(stamps)
            tr.add_span("cli.interp_start", start, t0)
            tr.add_span("cli.import", t0, t1)
            tr.add_span("cli.command", t1, t2)
            tr.add_span("op", start, end)
        error = checks.check_cli(cmd, proc.returncode, proc.stdout, err)
        return end - start, error and f"{' '.join(cmd['argv'])}: {error}"


WORKLOADS = {
    "cartan-sweep": lambda cal: InProcess(
        cal, lambda doc, text, item: checks.check_cartan_report(doc, text, item["components"])
    ),
    "hecke5-analyze": lambda cal: InProcess(
        cal, lambda doc, text, item: checks.check_hecke_report(doc, text, 5)
    ),
    "oracles": Oracles,
    "cli": lambda cal: Cli(),
}


# ---------------------------------------------------------------------------
# measurement


def measure(workload, items: list, seconds: float, seed: int, tr: Tracer,
            cal: Calibration) -> dict:
    """Ops over ``items``, pass after pass, each pass in a new seeded order.

    After the first whole pass, another op starts only if it ends within
    ``seconds`` at the mean op time so far, so the last pass may be partial.
    In-process workloads sample calibration from a timer over the whole
    loop; oracle ops sample it inside their child.
    """
    plain = Tracer(False)
    rng = random.Random(f"order/{seed}")
    ops, traced, errors, passes = [], [], [], 0
    start = time.perf_counter()
    with cal.during() if workload.calibration == "timer" else contextlib.nullcontext():
        while True:
            order = list(range(len(items)))
            rng.shuffle(order)
            for index in order:
                elapsed = time.perf_counter() - start
                if passes and elapsed + elapsed / len(ops) > seconds:
                    return {"ops": ops, "traced": traced, "errors": errors,
                            "passes": passes, "elapsed": elapsed}
                latency, error = run_op(workload, items[index], plain)
                ops.append((index, latency))
                if error:
                    errors.append(error)
                if tr.enabled:
                    tr.begin_op(len(ops) - 1)
                    latency, error = run_op(workload, items[index], tr)
                    traced.append(latency)
                    if error:
                        errors.append(error)
            passes += 1


def run_op(workload, item, tr: Tracer):
    """An op that raises counts as failed, with the time it took."""
    start = time.perf_counter()
    try:
        return workload.op(item, tr)
    except Exception as e:
        return time.perf_counter() - start, f"{type(e).__name__}: {e}"


def quantile90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb(in_process: bool) -> float:
    """Peak RSS of the process that ran the ops: this one, or the largest child."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def item_medians(run: dict) -> list[float]:
    """Each input's median latency over its repeats in this run."""
    by_item: dict[int, list[float]] = {}
    for index, latency in run["ops"]:
        by_item.setdefault(index, []).append(latency)
    return [statistics.median(v) for _, v in sorted(by_item.items())]


def end_to_end(run: dict, setup_s: float, in_process: bool) -> dict:
    """Latency percentiles are taken over the inputs' median latencies, so
    each input of a pass weighs the same however often it ran."""
    per_item = item_medians(run)
    return {
        "setup_s": setup_s,
        "wall_s": sum(per_item),
        "ops_per_s": len(run["ops"]) / run["elapsed"],
        "op_p50_s": statistics.median(per_item),
        "op_p90_s": quantile90(per_item),
        "peak_rss_mb": peak_rss_mb(in_process),
    }


def oracle_timings(parts: list[dict]) -> dict:
    """gen_hecke_s: median cold make_hecke(4); realize_ca_s: the median
    times of the three realize_CA steps, summed."""
    def median(op: str, name: str = "") -> float:
        return statistics.median(p["seconds"] for p in parts if (p["op"], p["name"]) == (op, name))

    names = sorted({p["name"] for p in parts if p["op"] == "realize_ca"})
    return {"gen_hecke_s": median("gen_hecke"),
            "realize_ca_s": sum(median("realize_ca", n) for n in names)}


def per_layer(tr: Tracer, run: dict) -> dict:
    values = {}
    for name, unit in PER_LAYER.items():
        if unit == "s" and not name.startswith("trace."):
            times = tr.self_times(name[:-2])
            values[name] = statistics.fmean(times) if times else 0.0
        elif unit == "count":
            if name in tr.peaks:
                values[name] = tr.peaks[name]
            else:
                ops = len(tr.count_ops.get(name, ()))
                values[name] = tr.counts[name] / ops if ops else 0
    parts = sum(values[f"{layer}_s"] for layer in REDUNDANT_LAYERS)
    values["report.redundancy"] = values["report.analyze_s"] / parts if parts else 0.0
    plain = statistics.median(latency for _, latency in run["ops"])
    traced = statistics.median(run["traced"])
    values["trace.overhead_s"] = traced - plain
    values["trace.overhead_pct"] = 100 * (traced - plain) / plain
    return {name: values[name] for name in PER_LAYER}


def provenance(seed: int, run: dict) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fiatcells").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        # percentiles and wall_s are over per-input medians of the op samples
        "samples": {"ops": len(run["ops"]), "inputs": len(item_medians(run)),
                    "whole_passes": run["passes"]},
        "load": "closed loop, one caller, one process",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fiatcells" / "__init__.py").is_file():
        die(f"no fiatcells package under {SRC}; run from the root of a checkout")

    cal = Calibration()
    workload = WORKLOADS[args.workload](cal)
    if workload.calibration:
        cal.sample(CALIBRATION_EDGE)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        items = setup(args.workload, args.seed)
        setups.append(time.perf_counter() - start)
    workload.start()

    tr = Tracer(bool(args.trace))
    run = measure(workload, items, args.seconds, args.seed, tr, cal)
    if workload.calibration:
        cal.sample(CALIBRATION_EDGE)
    attempted = len(run["ops"]) + len(run["traced"])
    failed = len(run["errors"])

    raw = end_to_end(run, statistics.median(setups), isinstance(workload, InProcess))
    if args.workload == "oracles":
        raw.update(oracle_timings(workload.parts))
    full = dict(raw)
    if workload.calibration:
        # set-up is process start-up and import, left unscaled like cli
        full.update(cal.scale({k: v for k, v in raw.items() if k != "setup_s"}))
    full["error_rate"] = failed / attempted
    metrics = (
        {k: {"value": v, "unit": PER_LAYER[k]} for k, v in per_layer(tr, run).items()}
        if args.trace
        else {k: {"value": full[k], "unit": unit(k)} for k in END_TO_END}
    )
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in full.items()},
        "raw": raw,
        "calibration": workload.calibration and {"speed": cal.speed(),
                                                 "samples": len(cal.samples)},
        "setup_samples_s": setups,
        "provenance": provenance(args.seed, run),
        "errors": run["errors"][:20],
    }
    if args.trace:
        report["per_layer"] = metrics
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {**report, "ops": run["ops"], "calibration_samples": cal.samples,
         "spans": tr.spans, "counts": tr.counts, "peaks": tr.peaks}))
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric == "ops_per_s":
        return "1/s"
    if metric == "error_rate":
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
