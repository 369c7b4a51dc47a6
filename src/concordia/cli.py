"""The concordia command line: analyze | roundtrip | search | export | gen.

Exit codes: 0 success, 1 parse/validation error, 2 input not concordant,
3 certificate failure (artifacts retained), 4 search budget exceeded
(partial census printed).  A SemigroupError raised once the input has been
read (NotAbundant from a factorisation, say) is a certificate failure.

Products compose left to right throughout: table[i][j] is "i then j", and
morphisms are written in the order of their composition.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import presets, search, serialization as ser
from .categories import CategoryError, build_ideal_category, check_consistent_axioms
from .cones import EPSILON_STAR_U, PRINCIPAL_ONLY
from .crossconn import (
    CertificateFailure,
    CrossConnectionError,
    NotConcordant,
    build_omega_s,
    build_s_omega,
    phi_roundtrip,
    psi_roundtrip,
)
from .icc import build_icc, check_icc_axioms
from .semigroups import LEFT, RIGHT, SemigroupError

EXIT_OK = 0
EXIT_NOT_CONCORDANT = 2
EXIT_CERTIFICATE = 3
EXIT_BUDGET = 4


def _preset(spec):
    """presets.preset, with its ValueError read as a parse error."""
    try:
        return presets.preset(spec)
    except ValueError as exc:
        raise ser.ParseError(f"--preset {spec}: {exc}") from exc


def _load_semigroup(args):
    if args.preset and args.input:
        raise ser.ParseError("give either --input or --preset, not both")
    if args.preset:
        return _preset(args.preset)
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ser.ParseError(f"--input {args.input}: {exc}") from exc
        return ser.semigroup_from_json(doc)
    raise ser.ParseError("one of --input or --preset is required")


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_gen(args) -> int:
    s = _preset(args.preset)
    _write(args.out, ser.dumps(ser.semigroup_to_json(s)))
    return EXIT_OK


def cmd_analyze(args) -> int:
    s = _load_semigroup(args)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "analysis.json").write_text(
            ser.dumps(ser.analysis_to_json(s)), encoding="utf-8")
        sys.stdout.write(ser.analysis_to_text(s))
    else:
        sys.stdout.write(ser.dumps(ser.analysis_to_json(s)))
        sys.stdout.write(ser.analysis_to_text(s))
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    s = _load_semigroup(args)
    outdir = Path(args.out) if args.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)

    def emit(name, text):
        if outdir:
            (outdir / name).write_text(text, encoding="utf-8")

    report = []
    emit("analysis.json", ser.dumps(ser.analysis_to_json(s)))
    try:
        mode = PRINCIPAL_ONLY if args.cones == "principal" else EPSILON_STAR_U
        omega = build_omega_s(s, mode=mode)
        emit("lcat.json", ser.dumps(ser.category_to_json(omega.C)))
        emit("rcat.json", ser.dumps(ser.category_to_json(omega.D)))
        emit("omega.json", ser.dumps(ser.omega_to_json(omega)))
        report.append(f"cross-connection: |E_Omega| = {len(omega.e_omega)}")

        cc_l = check_consistent_axioms(omega.C)
        cc_r = check_consistent_axioms(omega.D)
        report.append("CC axioms L(S): " + ("pass" if cc_l.ok else "; ".join(cc_l.lines())))
        report.append("CC axioms R(S): " + ("pass" if cc_r.ok else "; ".join(cc_r.lines())))
        if not cc_l.ok or not cc_r.ok:
            raise CertificateFailure("consistent-category axioms failed")

        somega = build_s_omega(omega)
        emit("somega.json", ser.dumps(ser.somega_to_json(somega)))
        report.append(f"|S-Omega| = {somega.order} (|S| = {s.order})")

        _, _, phi = phi_roundtrip(s, omega=omega, somega=somega)
        emit("phi.json", ser.dumps(ser.phi_to_json(phi)))
        report.append(f"phi isomorphism: {phi.ok}")

        f_cert, g_cert = psi_roundtrip(omega, somega)
        report.append(f"psi isomorphisms: F {f_cert.ok}, G {g_cert.ok}")

        icc = build_icc(omega, somega)
        emit("icc.json", ser.dumps(ser.icc_to_json(icc)))
        icc_rep = check_icc_axioms(icc)
        report.append("ICC axioms: " + ("pass" if icc_rep.ok else "; ".join(icc_rep.lines())))
        if not icc_rep.ok:
            raise CertificateFailure("inductive cancellative axioms failed")
    except NotConcordant as exc:
        report.append(f"NOT CONCORDANT: {exc}")
        emit("report.txt", "\n".join(report) + "\n")
        sys.stdout.write("\n".join(report) + "\n")
        return EXIT_NOT_CONCORDANT
    except (CertificateFailure, CrossConnectionError, CategoryError,
            SemigroupError) as exc:
        report.append(f"CERTIFICATE FAILURE: {exc}")
        emit("report.txt", "\n".join(report) + "\n")
        sys.stdout.write("\n".join(report) + "\n")
        return EXIT_CERTIFICATE
    report.append("all certificates pass")
    emit("report.txt", "\n".join(report) + "\n")
    sys.stdout.write("\n".join(report) + "\n")
    return EXIT_OK


def cmd_search(args) -> int:
    predicate = tuple(p for p in (args.predicate or "").split(",") if p)
    try:
        spec = search.SearchSpec(max_order=args.max_order, predicate=predicate,
                                 symmetry_reduction=not args.no_symmetry_reduction)
    except ValueError as exc:
        raise ser.ParseError(str(exc)) from exc
    try:
        census = search.run_search(spec, budget_seconds=args.budget)
    except search.BudgetExceeded as exc:
        _write(args.out, ser.dumps(exc.partial))
        return EXIT_BUDGET
    _write(args.out, ser.dumps(census))
    return EXIT_OK


def cmd_export(args) -> int:
    s = _load_semigroup(args)
    if args.what == "eggbox":
        text = (ser.eggbox_to_dot(s) if args.format == "dot"
                else ser.dumps(ser.eggbox_to_json(s)))
    elif args.what == "category":
        side = LEFT if args.side == "L" else RIGHT
        c = build_ideal_category(s, side)
        text = (ser.category_to_dot(c) if args.format == "dot"
                else ser.dumps(ser.category_to_json(c)))
    elif args.what == "icc":
        try:
            icc = build_icc(build_omega_s(s, mode=PRINCIPAL_ONLY))
        except NotConcordant as exc:
            sys.stderr.write(str(exc) + "\n")
            return EXIT_NOT_CONCORDANT
        except (CrossConnectionError, CategoryError, SemigroupError) as exc:
            sys.stderr.write(f"certificate failure: {exc}\n")
            return EXIT_CERTIFICATE
        text = (ser.icc_to_dot(icc) if args.format == "dot"
                else ser.dumps(ser.icc_to_json(icc)))
    else:
        raise ser.ParseError(f"unknown artifact {args.what!r}")
    _write(args.out, text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are parse errors (exit 1); argparse's own exit 2 would
    read as EXIT_NOT_CONCORDANT."""

    def error(self, message):
        raise ser.ParseError(f"{self.prog}: {message}")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    caller, which must not change it."""
    p = _Parser(
        prog="concordia",
        description="Concordance checker and cross-connection workbench for "
                    "finite semigroups (products read left to right).")
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp, out_help="output file (default stdout)"):
        sp.add_argument("--input", help="semigroup JSON file")
        sp.add_argument("--preset", help="preset NAME[:params], e.g. cyclic:3, "
                        "brandt-b2, direct-product:semilattice-chain:2*cyclic:3")
        sp.add_argument("--out", help=out_help)

    sp = sub.add_parser("gen", help="emit a preset semigroup as JSON")
    sp.add_argument("--preset", required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("analyze", help="full concordance battery")
    add_io(sp, "output DIRECTORY for analysis.json")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("roundtrip", help="Omega-S, S-Omega-S, phi/psi and ICC "
                        "certificates")
    add_io(sp, "output DIRECTORY for the artifact files")
    sp.add_argument("--cones", choices=["principal", "epsilon"],
                    default="principal",
                    help="cone semigroup construction mode (default principal)")
    sp.set_defaults(fn=cmd_roundtrip)

    sp = sub.add_parser("search", help="census of small semigroups")
    sp.add_argument("--max-order", type=int, required=True)
    sp.add_argument("--predicate", default="",
                    help="comma-separated conjunction, '!' negates, e.g. "
                    "concordant,!regular")
    sp.add_argument("--no-symmetry-reduction", action="store_true")
    sp.add_argument("--budget", type=float, default=None, help="seconds")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_search)

    sp = sub.add_parser("export", help="eggbox / category / icc as dot or json")
    add_io(sp)
    sp.add_argument("--what", choices=["eggbox", "category", "icc"], required=True)
    sp.add_argument("--format", choices=["dot", "json"], default="json")
    sp.add_argument("--side", choices=["L", "R"], default="L")
    sp.set_defaults(fn=cmd_export)
    return p


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.fn(args)
    except ser.ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    except SemigroupError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
