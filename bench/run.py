"""End-to-end benchmark of the ``labelcal`` command line.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload generates seeded
inputs, then runs its pipeline of real ``labelcal`` subcommands, one
child process per stage, the next stage starting when the one before it
has ended: a closed loop with one client.  No ``--threads`` is passed,
so the stages use the library default (``os.cpu_count()``).

A run makes one untimed warm-up pass, checks its outputs against the
planted answers, then repeats timed passes for ``--seconds`` (two at
least).  Before each pass and after the last it times one ``labelcal
--version`` child for the start-up cost, and one run of the fixed
reference program (``REFERENCE``) for the machine's current speed: the
pass wall and CPU times are reported as multiples of the reference time
(``pipeline_rel``, ``cpu_rel``) and, as measured, in seconds
(``run.pipeline_s``, ``run.cpu_s``).  Every pass must reproduce the
warm-up outputs byte for byte.  With ``--trace 1`` untraced and traced passes alternate: the untraced
ones give the per-stage figures and the tracing overhead, the traced
ones the per-layer spans and counts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics traced).  The lines
before it print every metric with its unit, the environment, the input
sizes and the output digests; the same goes to
``.bench_out/<workload>/result-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import generate  # noqa: E402
import tracer  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
# Per-stage address-space cap.  Fold search gathers chunk*N*L float64
# values per worker; a stage past the cap fails and is counted instead
# of exhausting the machine.
MEMORY_CAP = 4 << 30
MIN_PASSES = 2
# A fixed program that does not touch labelcal: an interpreter start, the
# imports that make up most of labelcal's own start-up, and some parsing
# and array work.  The speed of a shared machine drifts by tens of
# percent within minutes, and it moves this program's time and a pass's
# time alike, so the end-to-end times are reported as multiples of it,
# timed in the same run; a change to labelcal moves only the pass.
REFERENCE = """
import json
import numpy as np
import scipy.stats
rows = ["%.17g" % (i / 7.0) for i in range(150000)]
values = np.array([float(v) for v in rows])
np.sort(values)
json.loads(json.dumps(rows))
"""


@dataclass(frozen=True)
class Stage:
    command: str           # subcommand, names the per-stage metrics
    args: tuple[str, ...]    # "{in}" is the inputs directory, "{out}" the pass directory
    inputs: tuple[str, ...]  # files the stage reads, in the same notation
    outputs: tuple[str, ...]  # file names in the pass directory


@dataclass(frozen=True)
class Scale:
    """Input sizes.  FULL keeps one run of either workload (inputs,
    warm-up, checks, two or three passes) near 50 s on a 2-CPU box, where each
    child's start-up alone takes 1.0-1.7 s."""

    oof_items: int = 2000
    oof_labels: int = 40
    candidates: int = 1024
    predict_items: int = 12000
    predict_labels: int = 50
    pages: int = 160
    quotes: int = 20


FULL = Scale()
TINY = Scale(oof_items=300, oof_labels=8, candidates=64, predict_items=400,
             predict_labels=6, pages=12, quotes=4)

K = 10
PBT_GENERATIONS = 5
SIZES = (50, 301, 25)
THRESHOLDS = {"p_low": 0.2, "p_high": 0.54, "min_weight": 0.1, "n": 100}


def oof_calibrate(rng, inputs: Path, scale: Scale):
    planted = generate.oof_inputs(rng, inputs, scale.oof_items, scale.oof_labels, (1990, 2009))
    planted.update(k=K, sizes=SIZES, generations=PBT_GENERATIONS)
    stages = [
        Stage("folds", ("folds", "--labels", "{in}/truth.csv", "--k", str(K),
                        "--candidates", str(scale.candidates), "--out", "{out}/folds.csv"),
              ("{in}/truth.csv",), ("folds.csv", "folds.csv.score.json")),
        Stage("pbt-demo", ("pbt-demo", "--mode", "multilabel", "--population", "16",
                           "--generations", str(PBT_GENERATIONS),
                           "--out", "{out}/pbt_multilabel.json"), (), ("pbt_multilabel.json",)),
        Stage("pbt-demo", ("pbt-demo", "--mode", "multiclass", "--population", "8",
                           "--generations", str(PBT_GENERATIONS), "--patience", "3",
                           "--items", "200", "--labels", "4",
                           "--out", "{out}/pbt_multiclass.json"), (), ("pbt_multiclass.json",)),
        Stage("calibrate", ("calibrate", "--oof", "{in}/oof.csv", "--truth", "{in}/truth.csv",
                            "--step", "0.01", "--years", "{in}/years.txt",
                            "--out", "{out}/calibration.json"),
              ("{in}/oof.csv", "{in}/truth.csv", "{in}/years.txt"), ("calibration.json",)),
        Stage("metrics", ("metrics", "--probs", "{in}/oof.csv", "--truth", "{in}/truth.csv",
                          "--years", "{in}/years.txt", "--out", "{out}/metrics.json"),
              ("{in}/oof.csv", "{in}/truth.csv", "{in}/years.txt"), ("metrics.json",)),
        Stage("size-curve", ("size-curve", "--scores", "{in}/scores.txt",
                             "--sizes", str(SIZES[0]), str(SIZES[1] - 1), str(SIZES[2]),
                             "--reps", "10", "--resamples", "2000", "--out", "{out}/curve.json"),
              ("{in}/scores.txt",), ("curve.json",)),
    ]
    return planted, stages


def apply_corpus(rng, inputs: Path, scale: Scale):
    """The apply side: OCR pages to paragraphs, quote matches and a filter,
    then a predict matrix truncated, sampled and turned into a network."""
    ocr = generate.ocr_inputs(rng, inputs, scale.pages, 8, scale.quotes)
    predict = generate.predict_inputs(rng, inputs, scale.predict_items, scale.predict_labels)
    planted = {**ocr, **predict, **THRESHOLDS,
               "file_bytes": {**ocr["file_bytes"], **predict["file_bytes"]}}
    stages = [
        Stage("segment", ("segment", "--tsv", "{in}/tsv", "--out", "{out}/paragraphs.jsonl"),
              ("{in}/tsv",), ("paragraphs.jsonl",)),
        Stage("match", ("match", "--quotes", "{in}/quotes.jsonl",
                        "--paragraphs", "{out}/paragraphs.jsonl", "--out", "{out}/matches.json"),
              ("{in}/quotes.jsonl", "{out}/paragraphs.jsonl"), ("matches.json",)),
        Stage("filter", ("filter", "--texts", "{out}/paragraphs.jsonl", "--needle", generate.NEEDLE,
                         "--out", "{out}/kept.jsonl"), ("{out}/paragraphs.jsonl",), ("kept.jsonl",)),
        Stage("truncate", ("truncate", "--probs", "{in}/predict.csv",
                           "--p-low", str(THRESHOLDS["p_low"]), "--p-high", str(THRESHOLDS["p_high"]),
                           "--out", "{out}/truncated.csv"), ("{in}/predict.csv",), ("truncated.csv",)),
        Stage("sample", ("sample", "--probs", "{in}/predict.csv", "--n", str(THRESHOLDS["n"]),
                         "--out", "{out}/sample.json"), ("{in}/predict.csv",), ("sample.json",)),
        Stage("relnet", ("relnet", "--probs", "{out}/truncated.csv",
                         "--min-weight", str(THRESHOLDS["min_weight"]), "--out", "{out}/graph.dot"),
              ("{out}/truncated.csv",), ("graph.dot",)),
    ]
    return planted, stages


@dataclass(frozen=True)
class Workload:
    build: Callable[[np.random.Generator, Path, Scale], tuple[dict, list[Stage]]]
    check: Callable[[Path, Path, dict], list]
    layers: tuple[str, ...]  # layers the traced run must see called


# Why each workload: see BENCHMARK.json.  oof-calibrate loads the compute
# layers (searching); apply-corpus runs core and calibration the other way
# round, on parsing and writing, and alone runs segmentation and relnet.
WORKLOADS = {
    "oof-calibrate": Workload(
        oof_calibrate, checks.check_oof,
        ("cli", "core", "folds", "calibration", "metrics", "sampling", "pbt", "losses")),
    "apply-corpus": Workload(
        apply_corpus, checks.check_apply,
        ("cli", "core", "calibration", "sampling", "relnet", "segmentation")),
}
STAGE_COMMANDS = ("folds", "pbt-demo", "calibrate", "metrics", "size-curve",
                  "truncate", "sample", "relnet", "segment", "match", "filter")


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    ok: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def run_child(args: list[str], cwd: Path, trace_file: str = "-", pass_id: int = 0,
              cap: int = MEMORY_CAP) -> Child:
    """One ``labelcal`` child."""
    return _spawn([sys.executable, str(BENCH / "launch.py"), str(SRC), str(cap),
                   trace_file, str(pass_id), "--", *args], cwd)


def reference_child(cwd: Path) -> Child:
    return _spawn([sys.executable, "-c", REFERENCE], cwd)


def _spawn(command: list[str], cwd: Path) -> Child:
    """Run a child to its end; its rusage comes from its own ``wait4``."""
    err_path = cwd / f".stderr-{os.getpid()}"
    with open(os.devnull, "wb") as devnull, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(command, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=devnull, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    err_path.unlink()
    return Child(proc.returncode == 0, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, stderr)


@dataclass
class Pass:
    wall_s: float
    children: list[tuple[Stage, Child]]
    traces: list[dict] = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for _, c in self.children)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.rss_mb for _, c in self.children)


def _fill(template: str, pass_name: str) -> str:
    return template.format(**{"in": "inputs", "out": pass_name})


def run_pass(stages: list[Stage], work: Path, name: str, pass_id: int, trace: bool) -> Pass:
    out = work / name
    out.mkdir()
    children = []
    started = time.perf_counter()
    for i, stage in enumerate(stages):
        args = [_fill(a, name) for a in stage.args]
        trace_file = str(out / f"trace-{i}.json") if trace else "-"
        children.append((stage, run_child(args, work, trace_file, pass_id)))
    wall = time.perf_counter() - started
    traces = []
    if trace:
        for i, (_, child) in enumerate(children):
            path = out / f"trace-{i}.json"
            if path.exists():
                traces.append(json.loads(path.read_text()))
                path.unlink()
    return Pass(wall, children, traces)


def digests(stages: list[Stage], out: Path) -> dict[str, str]:
    found = {}
    for stage in stages:
        for name in stage.outputs:
            path = out / name
            found[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return found


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


class Tally:
    """Stage invocations and output checks attempted, and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, what: str, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"{what}: {failure}")


def _children_ok(tally: Tally, label: str, p: Pass) -> None:
    for stage, child in p.children:
        tail = child.stderr.strip().splitlines()[-1:] if child.stderr.strip() else []
        tally.add(f"{label} {stage.command}", None if child.ok else f"failed: {' '.join(tail)}")


def _input_bytes(stages: list[Stage], work: Path, name: str) -> int:
    total = 0
    for stage in stages:
        for rel in stage.inputs:
            path = work / _fill(rel, name)
            files = path.rglob("*") if path.is_dir() else [path]
            total += sum(f.stat().st_size for f in files if f.is_file())
    return total


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def prepare(name: str, seed: int, scale: Scale, work: Path) -> tuple[dict, list[Stage]]:
    """Fresh work directory with the workload's inputs made from the seed."""
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name].build(rng, work / "inputs", scale)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Scale = FULL, out_root: Path | None = None) -> dict:
    workload = WORKLOADS[name]
    work = (out_root or ROOT / ".bench_out") / name
    planted, stages = prepare(name, seed, scale, work)
    tally = Tally()

    warm = run_pass(stages, work, "warmup", 0, trace=False)
    _children_ok(tally, "warm-up", warm)
    for check, failure in workload.check(work / "inputs", work / "warmup", planted):
        tally.add(f"check {check}", failure)
    reference = digests(stages, work / "warmup")
    input_bytes = _input_bytes(stages, work, "warmup")

    setups: list[float] = []
    references: list[float] = []

    def between_passes():
        child = run_child(["--version"], work)
        tally.add("setup --version", None if child.ok else "failed")
        setups.append(child.wall_s)
        child = reference_child(work)
        tally.add("reference program", None if child.ok else f"failed: {child.stderr[-200:]}")
        references.append(child.wall_s)

    plain: list[Pass] = []
    traced: list[Pass] = []
    started = time.perf_counter()

    def more() -> bool:
        if time.perf_counter() - started < seconds:
            return True
        return not traced if trace else len(plain) < MIN_PASSES

    n = 0
    while more():
        n += 1
        between_passes()
        for is_traced in ((False, True) if trace else (False,)):
            label = f"pass{n}{'t' if is_traced else ''}"
            p = run_pass(stages, work, label, n, trace=is_traced)
            _children_ok(tally, label, p)
            tally.add(f"{label} byte-identical",
                      None if digests(stages, work / label) == reference else "outputs differ from warm-up")
            shutil.rmtree(work / label)
            (traced if is_traced else plain).append(p)
    between_passes()

    raw = {
        "run.pipeline_s": median([p.wall_s for p in plain]),
        "run.cpu_s": median([p.cpu_s for p in plain]),
        "run.reference_s": median(references),
    }
    e2e = {
        "pipeline_rel": raw["run.pipeline_s"] / raw["run.reference_s"],
        "cpu_rel": raw["run.cpu_s"] / raw["run.reference_s"],
        "peak_rss_mb": median([p.peak_rss_mb for p in plain]),
        "setup_s": median(setups),
    }
    layers = None
    if trace:
        layers = layer_metrics(workload, stages, plain, traced, e2e, tally)
        layers.update(raw)
        layers["trace.overhead_s"] = layers["trace.pipeline_s"] - raw["run.pipeline_s"]
        layers["cli.input_bytes"] = float(input_bytes)
    e2e["ok_rate"] = 1.0 - len(tally.failures) / tally.attempted
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "passes": len(plain), "traced_passes": len(traced), "setup_samples": len(setups),
        "pass_walls_s": [p.wall_s for p in plain], "setup_walls_s": setups,
        "reference_walls_s": references, "raw": raw,
        "stage_walls_s": [[[s.command, c.wall_s] for s, c in p.children] for p in plain],
        "attempted": tally.attempted, "failures": tally.failures,
        "end_to_end": e2e, "per_layer": layers,
        "digests": reference,
        "environment": environment(name, planted, scale, input_bytes),
        "work": str(work),
    }


def layer_metrics(workload: Workload, stages, plain, traced, e2e, tally) -> dict:
    per_pass = []
    for p in traced:
        merged: dict[str, float] = {}
        calls: dict[str, int] = {}
        for record in p.traces:
            for key, value in tracer.reduce_child(record).items():
                merged[key] = merged.get(key, 0.0) + value
            for layer, count in tracer.layer_calls(record).items():
                calls[layer] = calls.get(layer, 0) + count
        for layer in workload.layers:
            tally.add(f"trace {layer} called", None if calls.get(layer) else "no calls recorded")
        tally.add("trace files", None if len(p.traces) == len(stages) else "a traced stage wrote no spans")
        merged["segmentation.warnings"] = float(sum(
            c.stderr.count("UserWarning") for s, c in p.children if s.command == "segment"))
        covered = sum(merged[f"{layer}.self_s"] for layer in tracer.LAYERS)
        merged["trace.pipeline_s"] = p.wall_s
        merged["trace.coverage"] = (covered + len(stages) * e2e["setup_s"]) / p.wall_s
        per_pass.append(merged)
    out = {key: median([m.get(key, 0.0) for m in per_pass]) for key in per_pass[0]}
    out["folds.candidates_per_s"] = (out["folds.candidates"] / out["folds.stratified_kfold_s"]
                                     if out["folds.stratified_kfold_s"] else 0.0)
    for command in STAGE_COMMANDS:
        walls, cpus, rss = [], [], []
        for p in plain:
            mine = [c for s, c in p.children if s.command == command]
            walls.append(sum(c.wall_s for c in mine))
            cpus.append(sum(c.cpu_s for c in mine))
            rss.append(max((c.rss_mb for c in mine), default=0.0))
        out[f"cli.{command}.wall_s"] = median(walls)
        out[f"cli.{command}.cpu_s"] = median(cpus)
        out[f"cli.{command}.rss_mb"] = median(rss)
    return out


def environment(name: str, planted: dict, scale: Scale, input_bytes: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unknown"

    commit = "unknown"  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    computed = {}
    if name == "oof-calibrate":
        chunk = min(1024, scale.candidates)
        computed["folds_gather_bytes_per_worker"] = chunk * scale.oof_items * scale.oof_labels * 8
    if name == "apply-corpus":
        m = len(planted["paragraphs"]) + planted["merges"]
        computed["dbscan_pair_bytes"] = m * m * (8 * 2 + 8 + 1)
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count(),
        "commit": commit, "machine": platform.machine(),
        "inputs": {k: v for k, v in planted.items() if k in ("n_items", "n_labels", "pages",
                                                            "file_bytes")},
        "input_bytes_per_pass": input_bytes, "computed_bytes": computed,
        "memory_cap_bytes": MEMORY_CAP,
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def declared() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


# byte counts derived from the input shapes, not read from the process
COMPUTED = ("folds.gather_bytes", "segmentation.dbscan_pair_bytes")


def report(result: dict) -> dict:
    spec = declared()
    wanted = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    values = result["per_layer"] if result["trace"] else result["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={result['passes']} traced={result['traced_passes']} "
          f"setup_samples={result['setup_samples']}")
    for key, value in result["environment"].items():
        print(f"  env {key}: {json.dumps(value)}")
    for name, digest in sorted(result["digests"].items()):
        print(f"  digest {name}: {digest}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, value in result["raw"].items():
        print(f"  {name} = {value:.6g} s (as measured)")
    for name, m in metrics.items():
        note = " (computed, not measured)" if name in COMPUTED else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"  error_rate = {len(result['failures']) / result['attempted']:.6g} "
          f"({len(result['failures'])} of {result['attempted']} invocations and checks failed)")
    out = Path(result["work"]) / f"result-seed{result['seed']}-trace{result['trace']}.json"
    out.write_text(json.dumps({**result, "metrics": metrics}, indent=1, sort_keys=True))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "labelcal" / "cli.py").is_file():
        print(f"bench: no labelcal sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    combined = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        metrics = report(result)
        attempted += result["attempted"]
        failed += len(result["failures"])
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
