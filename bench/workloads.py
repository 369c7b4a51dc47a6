"""Inputs, references and the independent oracle of the concordia benchmark.

A workload is a list of items.  A roundtrip item is one
`concordia roundtrip --input FILE --cones MODE --out DIR` on a table that
the seed relabels; a census item is one `run_search` pass.  Every pass
gets its own relabelling, drawn from (seed, pass index, item), so each
item reaches the library with a table it has not seen yet and the
semigroup caches miss as they would in a fresh `concordia` process.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"

MODES = ("principal", "epsilon")
LARGE_PRESET = "direct-product:full-transformation:3*semilattice-chain:2"
QUICK_PRESETS = {"T2": "full-transformation:2", "B2": "brandt-b2"}
# concordant semigroups of order 1..5 up to isomorphism (anti-isomorphic
# pairs counted twice), as the order-5 census reports them
CLASS_COUNTS = {"1": 1, "2": 4, "3": 13, "4": 68, "5": 369}
CLASSES_COMMAND = ("run_search(SearchSpec(5, ('concordant',)), "
                   "witness_cap=10**6)")

ROUNDTRIP_WORKLOADS = ("roundtrip-large", "roundtrip-sweep", "quick-roundtrip")
CENSUS_WORKLOADS = {
    "census": {"max_order": 4, "predicate": ["concordant", "!regular"]},
    "quick-census": {"max_order": 3, "predicate": ["concordant", "!regular"]},
}
WORKLOADS = ("roundtrip-large", "roundtrip-sweep", "census")
QUICK_WORKLOADS = ("quick-roundtrip", "quick-census")


@dataclass
class RoundtripItem:
    key: str  # "<source>/<mode>", the reference key
    mode: str
    doc: dict  # the relabelled semigroup JSON written to `path`
    path: Path
    out: Path
    expected: str  # reference report.txt

    def argv(self) -> list:
        return ["roundtrip", "--input", str(self.path), "--cones", self.mode,
                "--out", str(self.out)]


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_classes(reference_dir: Path = REFERENCE_DIR) -> dict:
    """The checked-in concordant classes, keyed "<order>.<index>"."""
    data = load_json(reference_dir / "classes.json")
    counts = {n: len(tables) for n, tables in data["classes"].items()}
    if counts != CLASS_COUNTS:
        raise ValueError(f"reference classes have counts {counts}, "
                         f"expected {CLASS_COUNTS}")
    return {f"{n}.{i}": table for n, tables in data["classes"].items()
            for i, table in enumerate(tables)}


def load_expected(reference_dir: Path = REFERENCE_DIR) -> dict:
    return load_json(reference_dir / "expected.json")


def expected_report(expected: dict, key: str) -> str:
    return expected["reports"][expected["roundtrip"][key]]


def relabel(table, names, perm):
    """The same semigroup with element a renamed perm[a]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    new_names = None
    if names:
        new_names = [""] * n
        for a in range(n):
            new_names[perm[a]] = names[a]
    return out, new_names


def sources(workload: str, reference_dir: Path = REFERENCE_DIR) -> list:
    """(source name, table, names) for each input of a roundtrip workload."""
    if workload == "roundtrip-sweep":
        return [(key, table, None)
                for key, table in load_classes(reference_dir).items()]
    from concordia import presets
    specs = ({"large": LARGE_PRESET} if workload == "roundtrip-large"
             else QUICK_PRESETS)
    out = []
    for name, spec in specs.items():
        s = presets.preset(spec)
        out.append((name, [list(r) for r in s.table],
                    list(s.names) if s.names else None))
    return out


def prepare_roundtrip(workload: str, seed: int, pass_index: int, passdir: Path,
                      reference_dir: Path = REFERENCE_DIR) -> list:
    """Relabel every input of one pass; write_inputs writes them to passdir."""
    expected = load_expected(reference_dir)
    modes = ("principal",) if workload == "roundtrip-large" else MODES
    rng = random.Random(f"{seed}:{pass_index}")
    items = []
    for name, table, names in sources(workload, reference_dir):
        for mode in modes:
            perm = list(range(len(table)))
            rng.shuffle(perm)
            rt, rn = relabel(table, names, perm)
            doc = {"order": len(rt), "table": rt}
            if rn:
                doc["names"] = rn
            key = f"{name}/{mode}"
            items.append(RoundtripItem(key, mode, doc, passdir / f"{len(items)}.json",
                                       passdir / f"out{len(items)}",
                                       expected_report(expected, key)))
    return items


def write_inputs(items: list) -> None:
    """Write the inputs of one pass into their directory, which must not
    exist yet: on some file systems rewriting an existing file waits for the
    disk, where creating one does not."""
    items[0].path.parent.mkdir(parents=True)
    for item in items:
        item.path.write_text(json.dumps(item.doc), encoding="utf-8")


def is_isomorphism(table, target, mapping) -> bool:
    """mapping is a bijection from table's elements onto target's and
    mapping[a*b] == mapping[a]*mapping[b] for all a, b."""
    n = len(table)
    if len(target) != n or len(mapping) != n or sorted(mapping) != list(range(n)):
        return False
    return all(mapping[table[a][b]] == target[mapping[a]][mapping[b]]
               for a in range(n) for b in range(n))


def roundtrip_outcome(item: RoundtripItem, rc: int) -> bool:
    """The item is right when the exit code is 0, report.txt equals the
    reference and the written phi is an isomorphism onto S-Omega."""
    if rc != 0:
        return False
    try:
        report = (item.out / "report.txt").read_text(encoding="utf-8")
        phi = load_json(item.out / "phi.json")
        somega = load_json(item.out / "somega.json")
    except (OSError, ValueError):
        return False
    return (report == item.expected
            and is_isomorphism(item.doc["table"], somega["semigroup"]["table"],
                               phi["mapping"]))


def census_text(census: dict) -> str:
    """The census as `concordia search --out` writes it."""
    return json.dumps(census, sort_keys=True, indent=2) + "\n"


def census_summary(census: dict) -> dict:
    return {
        "counts": {n: [o["tables_enumerated"], o["candidates"], o["matching"]]
                   for n, o in census["orders"].items()},
        "sha256": hashlib.sha256(census_text(census).encode()).hexdigest(),
    }
