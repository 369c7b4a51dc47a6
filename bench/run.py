"""Benchmark harness for concordia: time to a certified verdict.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --self-check

Workloads (see bench/README.md for why each was chosen):
  roundtrip-large  one `concordia roundtrip` of T3 x C2 (order 54), relabelled
  roundtrip-sweep  `roundtrip` of all 455 concordant classes of order <= 5,
                   in both cone modes, each relabelled (910 items a pass)
  census           run_search(SearchSpec(4, ("concordant", "!regular")))

A run sets up (import, input generation, relabelling, input files) several
times before its passes and again after them, and reports the median as
setup_s.  It repeats passes over the
workload while the next one still fits in --seconds, at least once.
roundtrip-sweep and census instead make two rounds of a fixed number of
passes and count each item at the faster of its two times.  Every item is
checked against bench/reference.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the
metrics are the end-to-end ones with --trace 0 and the per-layer ones
(bench/tracing.py) with --trace 1.  The exit code is 1 when an item is wrong.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import tracing
import workloads as wl

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("item_ms_p50", "ms"),
    ("item_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
# Workloads timed as the best of two rounds, with the passes in a round:
# item i of pass j in the second round repeats that of the first, and counts
# at the faster of its two times.  This drops the slow bursts of a few
# seconds that a shared host puts into runs of many short items.
ROUND_PASSES = {"roundtrip-sweep": 1, "census": 40}
WORK_ROOT = wl.ROOT / ".bench_work"


def import_concordia():
    """Import concordia afresh, so each set-up pays for its import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "concordia"]:
        del sys.modules[name]
    from concordia import cli, search
    if wl.ROOT / "src" not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"concordia was found at {cli.__file__}, not in this tree")
    return cli, search


def prepare(workload, seed, pass_index, passdir, reference_dir):
    """The items of one pass; roundtrip inputs go to passdir when written."""
    if workload in wl.CENSUS_WORKLOADS:
        spec = wl.CENSUS_WORKLOADS[workload]
        return [(spec["max_order"], tuple(spec["predicate"]),
                 wl.load_expected(reference_dir)["census"][workload])]
    return wl.prepare_roundtrip(workload, seed, pass_index, passdir, reference_dir)


def write(workload, items):
    if workload not in wl.CENSUS_WORKLOADS:
        wl.write_inputs(items)


def time_set_ups(workload, seed, workdir, reference_dir):
    """Times of repeated set-ups, without writing the input files: creating
    910 files takes 0.08-0.2 s run to run on the file system this was
    measured on, noise that would hide the program's own set-up.  Returns
    the inputs of pass 0 too."""
    times = []
    while (len(times) < SETUP_REPEATS
           or (sum(times) < SETUP_MIN_SECONDS and len(times) < 10 * SETUP_REPEATS)):
        start = perf_counter()
        import_concordia()
        items = prepare(workload, seed, 0, workdir / "pass0", reference_dir)
        times.append(perf_counter() - start)
    return items, times


class Pass:
    def __init__(self):
        self.item_s, self.item_cpu_s, self.ok = [], [], []

    @property
    def wall_s(self):
        return sum(self.item_s)

    @property
    def cpu_s(self):
        return sum(self.item_cpu_s)


def run_pass(workload, items) -> Pass:
    """One untraced pass through the public entry points."""
    from concordia import cli, search
    p = Pass()
    with contextlib.redirect_stdout(io.StringIO()):
        for item in items:
            w0, c0 = perf_counter(), process_time()
            if workload in wl.CENSUS_WORKLOADS:
                max_order, predicate, expected = item
                census = search.run_search(search.SearchSpec(max_order, predicate))
            else:
                rc = cli.main(item.argv())
            p.item_s.append(perf_counter() - w0)
            p.item_cpu_s.append(process_time() - c0)
            if workload in wl.CENSUS_WORKLOADS:
                p.ok.append(wl.census_summary(census) == expected)
            else:
                p.ok.append(wl.roundtrip_outcome(item, rc))
                shutil.rmtree(item.out, ignore_errors=True)
    return p


def traced_pass(workload, items, tr: tracing.Tracer) -> Pass:
    """The same pass as the traced replay, with probes after each item."""
    p = Pass()
    with contextlib.redirect_stdout(io.StringIO()):
        for i, item in enumerate(items):
            if workload in wl.CENSUS_WORKLOADS:
                max_order, predicate, expected = item
                census = tr.run_item(i, "search", tracing.replay_census, tr,
                                     max_order, predicate)
                ok = wl.census_summary(census) == expected
            else:
                rc, s, omega, mode = tr.run_item(i, "cli", tracing.replay_roundtrip,
                                                 tr, item.argv())
                ok = wl.roundtrip_outcome(item, rc)
                shutil.rmtree(item.out, ignore_errors=True)
                if omega is not None:
                    tracing.probe_roundtrip(tr, s, omega, mode)
            p.item_s.append(tr.item_s)
            p.ok.append(ok)
    return p


def repeat_passes(workload, seed, seconds, items, workdir, reference_dir,
                  count=None):
    """Passes 0, 1, ... while the next pass is expected to end in time, or
    exactly `count` passes."""
    passes, start = [], perf_counter()
    while True:
        t0 = perf_counter()
        if passes:
            items = prepare(workload, seed, len(passes),
                            workdir / f"pass{len(passes)}", reference_dir)
            write(workload, items)
        passes.append(run_pass(workload, items))
        if count is not None:
            if len(passes) == count:
                return passes
        elif perf_counter() - start + (perf_counter() - t0) > seconds:
            return passes


def tail(values):
    """p98, or the highest percentile below it that has at least 10 samples
    above it (nearest rank); returns (value, percentile, samples above)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, min(math.ceil(0.98 * n), n - 10))
    return ordered[rank - 1], 100 * rank / n, n - rank


def best_of_two_rounds(passes):
    """The passes of the first round, each item at the faster of its times
    in the two rounds."""
    n = len(passes) // 2
    best = []
    for a, b in zip(passes[:n], passes[n:]):
        p = Pass()
        p.item_s = [min(ts) for ts in zip(a.item_s, b.item_s)]
        p.item_cpu_s = [min(ts) for ts in zip(a.item_cpu_s, b.item_cpu_s)]
        best.append(p)
    return best


def end_to_end(workload, passes, setup_s):
    how = f"{len(passes)} passes"
    if workload in ROUND_PASSES:
        passes = best_of_two_rounds(passes)
        how = (f"the {len(passes)} passes of the first round, each item at "
               f"the faster of its two rounds")
    items_ms = [t * 1000 for p in passes for t in p.item_s]
    tail_ms, q, above = tail(items_ms)
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "item_ms_p50": statistics.median(items_ms),
        "item_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    note = (f"item percentiles over {len(items_ms)} items; item_ms_tail is "
            f"p{q:.4g} with {above} above it; wall_s and cpu_s are medians "
            f"over {how}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}, note


def run_workload(args) -> int:
    reference_dir = Path(args.reference)
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        workdir = Path(tmp)
        items, setups = time_set_ups(args.workload, args.seed, workdir,
                                     reference_dir)
        write(args.workload, items)
        if args.trace:
            passes = repeat_passes(args.workload, args.seed, args.seconds / 2,
                                   items, workdir, reference_dir)
            tr = tracing.Tracer()
            traced_items = prepare(args.workload, args.seed, len(passes),
                                   workdir / f"pass{len(passes)}", reference_dir)
            write(args.workload, traced_items)
            traced = traced_pass(args.workload, traced_items, tr)
            metrics = tr.metrics(statistics.median(p.wall_s for p in passes))
            runs = passes + [traced]
        else:
            count = (2 * ROUND_PASSES[args.workload]
                     if args.workload in ROUND_PASSES else None)
            runs = passes = repeat_passes(args.workload, args.seed, args.seconds,
                                          items, workdir, reference_dir, count)
            # set-ups on both sides of the passes, so that a slow burst of
            # the host during one batch moves the median less
            setups += time_set_ups(args.workload, args.seed, workdir,
                                   reference_dir)[1]
            metrics, note = end_to_end(args.workload, passes,
                                       statistics.median(setups))
    with contextlib.suppress(OSError):
        WORK_ROOT.rmdir()

    attempted = sum(len(p.ok) for p in runs)
    failed = sum(not ok for p in runs for ok in p.ok)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"passes {len(passes)}{' + 1 traced' if args.trace else ''}  "
          f"items {attempted}  wrong {failed}  "
          f"wrong_ratio {failed / attempted:.6g}  set-ups {len(setups)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  ({note})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    rc, rows = 0, []
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            rc = 1
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            continue
        result = json.loads(lines[-1])
        rows.append((workload, "wrong_ratio",
                     result["failed"] / result["attempted"], "ratio",
                     result["attempted"]))
        rows += [(workload, name, m["value"], m["unit"], result["attempted"])
                 for name, m in result["metrics"].items()]
    print(f"\n{'workload':16s} {'metric':40s} {'value':>14s} unit   items")
    for workload, name, value, unit, items in rows:
        print(f"{workload:16s} {name:40s} {value:>14.6g} {unit:6s} {items}")
    return rc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=wl.WORKLOADS + wl.QUICK_WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=str(wl.REFERENCE_DIR),
                   help="directory of classes.json and expected.json")
    p.add_argument("--all", action="store_true",
                   help="run every workload, each in a fresh interpreter")
    p.add_argument("--self-check", action="store_true",
                   help="check the harness itself on tiny inputs")
    args = p.parse_args(argv)
    sys.path.insert(0, str(wl.ROOT / "src"))
    try:
        import_concordia()
    except ImportError as exc:
        sys.stderr.write(f"cannot import concordia from {wl.ROOT / 'src'}: {exc}\n")
        return 2
    if args.self_check:
        import selfcheck
        return selfcheck.main()
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("give --workload, --all or --self-check")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
