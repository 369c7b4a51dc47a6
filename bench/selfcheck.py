"""Self-check of the benchmark harness on tiny inputs.

    python3 bench/run.py --self-check

Runs the quick workloads (T2 and B2 in both cone modes; the order-3
census) and checks that:
  - BENCHMARK.json lists exactly the metrics the harness prints;
  - every run prints every metric by name and unit and is correct;
  - the traced replay gives the CLI's exit code and byte-identical
    artifacts per item, and the census JSON of run_search;
  - a corrupted reference gives wrong items and a failing exit;
  - a tree holding only BENCHMARK.json and bench/ fails without a result.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracing
import workloads as wl


def harness(args, cwd=wl.ROOT):
    """Exit code and parsed result line (None when there is none)."""
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def quick_args(workload, trace, seconds=1):
    return ["--workload", workload, "--seed", "7", "--seconds", str(seconds),
            "--trace", str(trace)]


def check_declared(problems):
    bench = wl.load_json(wl.ROOT / "BENCHMARK.json")
    declared = {"end_to_end": [(m["name"], m["unit"]) for m in bench["end_to_end"]],
                "per_layer": [(m["name"], m["unit"]) for m in bench["per_layer"]]}
    if declared["end_to_end"] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if declared["per_layer"] != list(tracing.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if [w["name"] for w in bench["workloads"]] != list(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_runs(problems):
    for workload in wl.QUICK_WORKLOADS:
        for trace, names in ((0, run.END_TO_END), (1, tracing.PER_LAYER)):
            rc, result = harness(quick_args(workload, trace))
            where = f"{workload} --trace {trace}"
            if rc != 0 or result is None:
                problems.append(f"{where}: exit {rc}, result {result}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} items wrong")
            printed = [(n, m["unit"]) for n, m in result["metrics"].items()]
            if printed != list(names):
                problems.append(f"{where}: metrics {printed}")


def check_replay(problems, workdir: Path):
    from concordia import cli, search
    items = wl.prepare_roundtrip("quick-roundtrip", 7, 0, workdir / "inputs")
    wl.write_inputs(items)
    tr = tracing.Tracer()
    for i, item in enumerate(items):
        replay = dataclasses.replace(item, out=workdir / f"replay{i}")
        with contextlib.redirect_stdout(io.StringIO()):
            rc_cli = cli.main(item.argv())
            rc_replay, *_ = tr.run_item(i, "cli", tracing.replay_roundtrip,
                                        tr, replay.argv())
        names = sorted(p.name for p in item.out.iterdir())
        same = (rc_cli == rc_replay
                and names == sorted(p.name for p in replay.out.iterdir())
                and all((item.out / n).read_bytes() == (replay.out / n).read_bytes()
                        for n in names))
        if not same or len(names) != 8:
            problems.append(f"replay of {item.key} differs from the CLI")
    spec = wl.CENSUS_WORKLOADS["quick-census"]
    predicate = tuple(spec["predicate"])
    expected = search.run_search(search.SearchSpec(spec["max_order"], predicate))
    if tracing.replay_census(tr, spec["max_order"], predicate) != expected:
        problems.append("census replay differs from run_search")


def check_corrupted(problems, workdir: Path):
    reference = workdir / "corrupted"
    shutil.copytree(wl.REFERENCE_DIR, reference)
    expected = wl.load_expected(reference)
    expected["reports"] = [r.replace("pass", "PASS") for r in expected["reports"]]
    for summary in expected["census"].values():
        summary["sha256"] = "0" * 64
    (reference / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    for workload in wl.QUICK_WORKLOADS:
        rc, result = harness(quick_args(workload, 0) + ["--reference", str(reference)])
        if rc == 0 or result is None or result["correct"] or not result["failed"]:
            problems.append(f"{workload}: corrupted reference gave exit {rc}, "
                            f"result {result}")


def check_bare_tree(problems, workdir: Path):
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(wl.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result = harness(quick_args("census", 0), cwd=bare)
    if rc == 0 or result is not None:
        problems.append(f"tree without sources gave exit {rc}, result {result}")


def main() -> int:
    problems = []
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        check_declared(problems)
        check_runs(problems)
        check_replay(problems, Path(tmp))
        check_corrupted(problems, Path(tmp))
        check_bare_tree(problems, Path(tmp))
    with contextlib.suppress(OSError):
        run.WORK_ROOT.rmdir()
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0
