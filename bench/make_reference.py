"""Regenerate the benchmark's reference files under bench/reference/.

    PYTHONPATH=src python3 bench/make_reference.py

classes.json holds every concordant semigroup of order <= 5 up to
isomorphism.  It is written only when missing, because the order-5 census
behind it takes about 3 minutes; delete the file to rebuild it.
expected.json holds the report.txt of every roundtrip item, run on the
unrelabelled table, and the counts and digest of each census workload.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from concordia import cli  # noqa: E402
from concordia.search import SearchSpec, run_search  # noqa: E402

import workloads as wl  # noqa: E402


def make_classes(path: Path) -> None:
    """One table per line, grouped by order."""
    census = run_search(SearchSpec(5, ("concordant",)), witness_cap=10**6)
    orders = ",\n".join(
        f'  "{n}": [\n' + ",\n".join("   " + json.dumps(t) for t in o["witnesses"])
        + "\n  ]" for n, o in census["orders"].items())
    path.write_text('{\n "command": ' + json.dumps(wl.CLASSES_COMMAND)
                    + ',\n "classes": {\n' + orders + "\n }\n}\n", encoding="utf-8")


def reference_report(table, names, mode: str, tmp: Path) -> str:
    doc = {"order": len(table), "table": table}
    if names:
        doc["names"] = names
    tmp = Path(tempfile.mkdtemp(dir=tmp))  # fresh files: see prepare_roundtrip
    path = tmp / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["roundtrip", "--input", str(path), "--cones", mode,
                       "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"roundtrip exited {rc} on a reference input")
    return (out / "report.txt").read_text(encoding="utf-8")


def main() -> int:
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    classes_path = wl.REFERENCE_DIR / "classes.json"
    if not classes_path.exists():
        make_classes(classes_path)
    wl.load_classes()  # checks the per-order counts

    reports, index, roundtrip = [], {}, {}
    work_root = wl.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        for workload in wl.ROUNDTRIP_WORKLOADS:
            modes = ("principal",) if workload == "roundtrip-large" else wl.MODES
            for name, table, names in wl.sources(workload):
                for mode in modes:
                    text = reference_report(table, names, mode, Path(tmp))
                    roundtrip[f"{name}/{mode}"] = index.setdefault(text, len(reports))
                    if index[text] == len(reports):
                        reports.append(text)
    census = {name: wl.census_summary(run_search(SearchSpec(
                  spec["max_order"], tuple(spec["predicate"]))))
              for name, spec in wl.CENSUS_WORKLOADS.items()}
    with contextlib.suppress(OSError):
        work_root.rmdir()
    expected = {"reports": reports, "roundtrip": roundtrip, "census": census}
    (wl.REFERENCE_DIR / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
