"""The traced replay: spans around the calls into each concordia module.

The library itself is not instrumented.  A roundtrip item is replayed as
the sequence of public calls that `cli.cmd_roundtrip` makes, each wrapped
in a span, and writes the same artifacts.  After an item, the probes call
`validate_category`, `build_ideal_category`, `build_cone_semigroup` and
`build_dual` standalone on the same input; they repeat work done inside
`check_consistent_axioms` and `build_omega_s`, so they are reported as
probes and never added to the item.  A census pass is replayed as the loop
of `search.run_search` with spans around each table the enumeration
yields, each canonical form and each predicate evaluation.  Unlike
`run_search`, the replay leaves the semigroup caches alone between
orders; tables of different orders never share a cache entry.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ITEM, CHILD, PROBE = "item", "child", "probe"

PER_LAYER = (
    ("categories.check_consistent_axioms.s", "s"),
    ("categories.validate_category.s", "s"),
    ("categories.objects", "count"),
    ("categories.morphisms", "count"),
    ("categories.composable_pairs", "count"),
    ("crossconn.build_omega_s.s", "s"),
    ("categories.build_ideal_category.s", "s"),
    ("cones.build_cone_semigroup.s", "s"),
    ("crossconn.build_dual.s", "s"),
    ("crossconn.build_s_omega.s", "s"),
    ("crossconn.phi_roundtrip.s", "s"),
    ("crossconn.psi_roundtrip.s", "s"),
    ("cones.cones", "count"),
    ("crossconn.e_omega", "count"),
    ("crossconn.linked_pairs", "count"),
    ("icc.build_icc.s", "s"),
    ("icc.check_icc_axioms.s", "s"),
    ("serialization.semigroup_from_json.s", "s"),
    ("serialization.analysis_to_json.s", "s"),
    ("serialization.to_json.s", "s"),
    ("serialization.dumps.s", "s"),
    ("serialization.bytes", "B"),
    ("cli.self.s", "s"),
    ("search.enumerate_tables.s", "s"),
    ("search.tables", "count"),
    ("search.canonical_form.s", "s"),
    ("search.canonical_form.calls", "count"),
    ("search.evaluate_predicates.s", "s"),
    ("search.candidates", "count"),
    ("search.candidate_ratio", "ratio"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Spans kept in memory as (item, kind, name, start, end), plus counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = None
        self.kind = PROBE
        self.item_s = 0.0  # duration of the last item

    def run_item(self, item, name, fn, *args):
        """fn(*args) as one item span; the spans it opens are its children,
        and spans opened after it returns are probes."""
        self.item, self.kind = item, CHILD
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.spans.append((item, ITEM, name, start, end))
            self.item_s = end - start
            self.kind = PROBE

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((self.item, self.kind, name, start, perf_counter()))

    def seconds(self, name=None, kind=None) -> float:
        return sum(end - start for _, k, n, start, end in self.spans
                   if (name is None or n == name) and (kind is None or k == kind))

    def metrics(self, untraced_s: float) -> dict:
        values = {name: 0.0 for name, unit in PER_LAYER if unit == "s"}
        for _, kind, name, start, end in self.spans:
            if kind != ITEM:
                values[f"{name}.s"] += end - start
        traced_s = self.seconds(kind=ITEM)
        cli_s = self.seconds(name="cli", kind=ITEM)
        values["cli.self.s"] = cli_s - self.seconds(kind=CHILD) if cli_s else 0.0
        values["trace.untraced_s"] = untraced_s
        values["trace.traced_s"] = traced_s
        values["trace.overhead_s"] = traced_s - untraced_s
        values.update(self.counts)
        tables = self.counts["search.tables"]
        values["search.candidate_ratio"] = (
            self.counts["search.candidates"] / tables if tables else 0.0)
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in PER_LAYER}


def replay_roundtrip(tr: Tracer, argv: list):
    """`concordia roundtrip` as cmd_roundtrip runs it, one span per call.

    Returns (exit code, semigroup, cross-connection or None, cone mode)."""
    from concordia import cli, cones, serialization as ser
    from concordia.categories import check_consistent_axioms
    from concordia.crossconn import (CertificateFailure, CrossConnectionError,
                                     NotConcordant, build_omega_s, build_s_omega,
                                     phi_roundtrip, psi_roundtrip)
    from concordia.icc import build_icc, check_icc_axioms

    args = cli.make_parser().parse_args(argv)
    with open(args.input, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    s = tr.call("serialization.semigroup_from_json", ser.semigroup_from_json, data)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    def emit(name, span, convert, obj):
        text = tr.call("serialization.dumps", ser.dumps, tr.call(span, convert, obj))
        tr.counts["serialization.bytes"] += len(text)  # json.dumps writes ASCII
        (outdir / name).write_text(text, encoding="utf-8")

    def finish(report, rc):
        text = "\n".join(report) + "\n"
        (outdir / "report.txt").write_text(text, encoding="utf-8")
        sys.stdout.write(text)
        return rc

    report, omega = [], None
    mode = cones.PRINCIPAL_ONLY if args.cones == "principal" else cones.EPSILON_STAR_U
    emit("analysis.json", "serialization.analysis_to_json", ser.analysis_to_json, s)
    try:
        omega = tr.call("crossconn.build_omega_s", build_omega_s, s, mode=mode)
        for c in (omega.C, omega.D):
            tr.counts["categories.objects"] += c.n_objects
            tr.counts["categories.morphisms"] += c.n_morphisms
            tr.counts["categories.composable_pairs"] += len(c.compose_table)
        tr.counts["cones.cones"] += omega.cs_c.order + omega.cs_d.order
        tr.counts["crossconn.e_omega"] += len(omega.e_omega)
        emit("lcat.json", "serialization.to_json", ser.category_to_json, omega.C)
        emit("rcat.json", "serialization.to_json", ser.category_to_json, omega.D)
        emit("omega.json", "serialization.to_json", ser.omega_to_json, omega)
        report.append(f"cross-connection: |E_Omega| = {len(omega.e_omega)}")

        cc_l = tr.call("categories.check_consistent_axioms", check_consistent_axioms, omega.C)
        cc_r = tr.call("categories.check_consistent_axioms", check_consistent_axioms, omega.D)
        report.append("CC axioms L(S): " + ("pass" if cc_l.ok else "; ".join(cc_l.lines())))
        report.append("CC axioms R(S): " + ("pass" if cc_r.ok else "; ".join(cc_r.lines())))
        if not cc_l.ok or not cc_r.ok:
            raise CertificateFailure("consistent-category axioms failed")

        somega = tr.call("crossconn.build_s_omega", build_s_omega, omega)
        tr.counts["crossconn.linked_pairs"] += somega.order
        emit("somega.json", "serialization.to_json", ser.somega_to_json, somega)
        report.append(f"|S-Omega| = {somega.order} (|S| = {s.order})")

        _, _, phi = tr.call("crossconn.phi_roundtrip", phi_roundtrip, s,
                            omega=omega, somega=somega)
        emit("phi.json", "serialization.to_json", ser.phi_to_json, phi)
        report.append(f"phi isomorphism: {phi.ok}")

        f_cert, g_cert = tr.call("crossconn.psi_roundtrip", psi_roundtrip, omega, somega)
        report.append(f"psi isomorphisms: F {f_cert.ok}, G {g_cert.ok}")

        icc = tr.call("icc.build_icc", build_icc, omega, somega)
        emit("icc.json", "serialization.to_json", ser.icc_to_json, icc)
        icc_rep = tr.call("icc.check_icc_axioms", check_icc_axioms, icc)
        report.append("ICC axioms: " + ("pass" if icc_rep.ok else "; ".join(icc_rep.lines())))
        if not icc_rep.ok:
            raise CertificateFailure("inductive cancellative axioms failed")
    except NotConcordant as exc:
        report.append(f"NOT CONCORDANT: {exc}")
        return finish(report, cli.EXIT_NOT_CONCORDANT), s, None, mode
    except (CertificateFailure, CrossConnectionError) as exc:
        report.append(f"CERTIFICATE FAILURE: {exc}")
        return finish(report, cli.EXIT_CERTIFICATE), s, omega, mode
    report.append("all certificates pass")
    return finish(report, cli.EXIT_OK), s, omega, mode


def probe_roundtrip(tr: Tracer, s, omega, mode) -> None:
    """Standalone calls that split check_consistent_axioms and build_omega_s."""
    from concordia.categories import build_ideal_category, validate_category
    from concordia.cones import build_cone_semigroup
    from concordia.crossconn import build_dual
    from concordia.semigroups import LEFT, RIGHT

    for c in (omega.C, omega.D):
        tr.call("categories.validate_category", validate_category, c)
    for side in (LEFT, RIGHT):
        c = tr.call("categories.build_ideal_category", build_ideal_category, s, side)
        cs = tr.call("cones.build_cone_semigroup", build_cone_semigroup, c, mode)
        tr.call("crossconn.build_dual", build_dual, cs)


def replay_census(tr: Tracer, max_order: int, predicate: tuple,
                  witness_cap: int = 10) -> dict:
    """run_search(SearchSpec(max_order, predicate)) with spans; same JSON."""
    from concordia.search import canonical_form, enumerate_tables, evaluate_predicates

    census = {"spec": {"max_order": max_order, "predicate": list(predicate),
                       "symmetry_reduction": True},
              "orders": {}, "complete": True, "total_matching": 0}
    for n in range(1, max_order + 1):
        tables = iter(enumerate_tables(n))
        enumerated, candidates = 0, []
        while True:
            table = tr.call("search.enumerate_tables", next, tables, None)
            if table is None:
                break
            enumerated += 1
            if tr.call("search.canonical_form", canonical_form, table) == table:
                candidates.append(table)
        matching = [t for t in candidates
                    if matches(tr.call("search.evaluate_predicates",
                                       evaluate_predicates, t), predicate)]
        tr.counts["search.tables"] += enumerated
        tr.counts["search.canonical_form.calls"] += enumerated
        tr.counts["search.candidates"] += len(candidates)
        census["orders"][str(n)] = {
            "tables_enumerated": enumerated,
            "candidates": len(candidates),
            "matching": len(matching),
            "witnesses": [[list(r) for r in t] for t in matching[:witness_cap]],
        }
        census["total_matching"] += len(matching)
    return census


def matches(flags: dict, predicate) -> bool:
    """The conjunction of predicate names, '!' negating one."""
    return all(not flags[p[1:]] if p.startswith("!") else flags[p]
               for p in predicate)
