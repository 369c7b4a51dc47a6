"""JSON and DOT serialisation for every artifact type.

All JSON is emitted by `dumps`: sorted keys, the document and the elements
of its members on lines of their own with 2-space indent, and everything
deeper on one line, so reruns are byte-identical.  Category JSON
(schema "concordia.category/2") lists each object's strict superiors under
"leq", with the reflexive pairs implied, and composition as one row per
morphism m1, aligned with `outgoing(cod m1)`.
"""
from __future__ import annotations

import hashlib
import json

from .categories import CategoryError, SubobjectCategory, from_parts
from .cones import Cone
from .semigroups import (
    EqRelation,
    FiniteSemigroup,
    SemigroupError,
    biorder,
    green_classes,
    identity_of,
    idempotents,
    is_abundant,
    is_concordant,
    is_weakly_reductive,
    regular_elements,
    starred_relation,
    validate_table,
    LEFT,
    RIGHT,
)


class ParseError(SemigroupError):
    pass


CATEGORY_SCHEMA = "concordia.category/2"

_encode = json.JSONEncoder(sort_keys=True).encode  # one line, C-speed


def dumps(obj) -> str:
    """obj as JSON with sorted keys: the document and the elements of its
    members are indented by 2 spaces a level, and each value below that is
    written on one line by the C encoder."""
    return _dumps(obj, 2, "") + "\n"


def _dumps(obj, levels: int, indent: str) -> str:
    if levels and isinstance(obj, dict) and obj:
        inner = indent + "  "
        # a key that is not a string is written as json.dumps writes it
        lines = [f"{inner}{_encode(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{_dumps(v, levels - 1, inner)}" for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(lines) + f"\n{indent}}}"
    if levels and isinstance(obj, (list, tuple)) and obj:
        inner = indent + "  "
        lines = [inner + _dumps(v, levels - 1, inner) for v in obj]
        return "[\n" + ",\n".join(lines) + f"\n{indent}]"
    return _encode(obj)


def semigroup_to_json(s: FiniteSemigroup) -> dict:
    out = {"order": s.order, "table": [list(row) for row in s.table]}
    if s.names:
        out["names"] = list(s.names)
    one = identity_of(s)
    if one is not None:
        out["one"] = one
    return out


def semigroup_from_json(data) -> FiniteSemigroup:
    if not isinstance(data, dict) or "table" not in data:
        raise ParseError("semigroup JSON needs a 'table' field")
    table = data["table"]
    if "order" in data and isinstance(table, list) and data["order"] != len(table):
        raise ParseError("declared order does not match the table size")
    return validate_table(table, names=data.get("names"), one=data.get("one"))


def category_to_json(c: SubobjectCategory) -> dict:
    """The category as schema "concordia.category/2"; `compose` is
    `c.rows`: `compose[m1]` lists m1's composites with
    `c.outgoing(c.cod[m1])`, in that order."""
    objects = [{"id": a,
                "leq": sorted(b for b in c.objects if b != a and (a, b) in c.leq)}
               for a in c.objects]
    morphisms = [{"id": m, "dom": c.dom[m], "cod": c.cod[m],
                  "inclusion": c.is_inclusion(m), "label": c.label(m)}
                 for m in c.morphisms]
    return {"schema": CATEGORY_SCHEMA, "objects": objects,
            "morphisms": morphisms, "compose": list(map(list, c.rows))}


def category_from_json(data) -> SubobjectCategory:
    """The category written by `category_to_json`, without its semigroup.

    Strict: the schema must be CATEGORY_SCHEMA, objects and morphisms are
    listed by id from 0, every id is an int in range, and each compose row
    has one entry per morphism out of the codomain of its m1.  Anything
    else, and parts that `from_parts` rejects, is a ParseError."""
    if not isinstance(data, dict) or data.get("schema") != CATEGORY_SCHEMA:
        raise ParseError(f"category JSON needs \"schema\": \"{CATEGORY_SCHEMA}\"")
    objects = _entries(data, "objects")
    morphisms = _entries(data, "morphisms")
    rows = _field(data, "compose", list, "category")
    n, n_mor = len(objects), len(morphisms)
    leq = []
    for a, o in enumerate(objects):
        superiors = _field(o, "leq", list, f"object {a}", default=[])
        leq += [(a, _id(b, n, f"object {a} leq")) for b in superiors]
    parts = [(_id(m.get("dom"), n, f"morphism {i} dom"),
              _id(m.get("cod"), n, f"morphism {i} cod"),
              _field(m, "inclusion", bool, f"morphism {i}", default=False))
             for i, m in enumerate(morphisms)]
    for m1, row in enumerate(rows):
        if not isinstance(row, list):
            raise ParseError(f"compose row {m1} must be a list")
        for m3 in row:
            _id(m3, n_mor, f"compose row {m1}")
    try:
        return from_parts(n, leq, parts, rows)
    except CategoryError as exc:
        raise ParseError(f"bad category JSON: {exc}") from exc


def _field(data: dict, name, kind, where, default=None):
    """data[name], which must be a `kind`."""
    value = data.get(name, default)
    if not isinstance(value, kind):
        raise ParseError(f"{where} needs {name!r} as a {kind.__name__}")
    return value


def _entries(data: dict, name) -> list:
    """data[name], a list of objects whose ids are 0, 1, ... in order."""
    entries = _field(data, name, list, "category")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or type(entry.get("id")) is not int \
                or entry["id"] != i:
            raise ParseError(f"{name} entry {i} must be an object with id {i}")
    return entries


def _id(value, n: int, where: str) -> int:
    """value as an id below n."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < n:
        raise ParseError(f"{where}: {value!r} is not an id below {n}")
    return value


def cone_to_json(cone: Cone) -> dict:
    return {"vertex": cone.vertex,
            "components": {str(a): m for a, m in enumerate(cone.components)}}


def eq_relation_to_json(rel: EqRelation) -> list:
    return [sorted(cls) for cls in rel.classes()]


def analysis_to_json(s: FiniteSemigroup) -> dict:
    g = green_classes(s)
    lstar = starred_relation(s, LEFT)
    rstar = starred_relation(s, RIGHT)
    ab = is_abundant(s)
    rep = is_concordant(s)
    bo = biorder(s)
    out = {
        "order": s.order,
        "names": list(s.names) if s.names else None,
        "idempotents": list(idempotents(s)),
        "green": {
            "L": eq_relation_to_json(g.l),
            "R": eq_relation_to_json(g.r),
            "H": eq_relation_to_json(g.h),
            "D": eq_relation_to_json(g.d),
        },
        "starred": {
            "L_star": eq_relation_to_json(lstar),
            "R_star": eq_relation_to_json(rstar),
        },
        "abundant": ab.abundant,
        "abundance_witnesses": {
            "dagger": list(ab.dagger),
            "star": list(ab.star),
            "failing": list(ab.failing()),
        },
        "idempotent_connected": rep.idempotent_connected,
        "idempotents_generate_regular": rep.idempotents_regular,
        "non_regular_witness": rep.esub.non_regular_witness,
        "concordant": rep.concordant,
        "regular": len(regular_elements(s)) == s.order,
        "weakly_reductive": is_weakly_reductive(s),
        "biorder": {
            "omega_l": sorted(map(list, bo.omega_l)),
            "omega_r": sorted(map(list, bo.omega_r)),
            "sandwich": {f"{e},{f}": list(hs) for (e, f), hs in sorted(bo.sandwich.items())},
            "regular": bo.regular,
        },
    }
    if rep.ic is not None:
        out["ic_bijections"] = [list(map(list, alpha)) for alpha in rep.ic.alpha]
        out["ic_non_forced"] = list(rep.ic.non_forced)
    return out


def analysis_to_text(s: FiniteSemigroup) -> str:
    data = analysis_to_json(s)
    lines = [f"order {data['order']}, idempotents {data['idempotents']}"]
    for rel in ("L", "R", "H", "D"):
        lines.append(f"  {rel}-classes: {data['green'][rel]}")
    lines.append(f"  L*-classes: {data['starred']['L_star']}")
    lines.append(f"  R*-classes: {data['starred']['R_star']}")
    lines.append(f"  abundant: {data['abundant']}"
                 + (f" (failing: {data['abundance_witnesses']['failing']})"
                    if not data["abundant"] else ""))
    lines.append(f"  idempotent-connected: {data['idempotent_connected']}")
    lines.append(f"  idempotents generate regular subsemigroup: "
                 f"{data['idempotents_generate_regular']}"
                 + (f" (witness: {data['non_regular_witness']})"
                    if data["non_regular_witness"] is not None else ""))
    lines.append(f"  concordant: {data['concordant']}")
    lines.append(f"  regular: {data['regular']}")
    lines.append(f"  weakly reductive: {data['weakly_reductive']}")
    lines.append(f"  biordered set regular: {data['biorder']['regular']}")
    return "\n".join(lines) + "\n"


def category_to_dot(c: SubobjectCategory) -> str:
    """One node per object, one edge per morphism; inclusions bold."""
    lines = ["digraph category {", "  rankdir=BT;"]
    for a in c.objects:
        lines.append(f'  o{a} [label="{c.object_label(a)}"];')
    for m in c.morphisms:
        style = ' [style=bold color=blue]' if c.is_inclusion(m) else \
            f' [label="{c.label(m)}"]'
        lines.append(f"  o{c.dom[m]} -> o{c.cod[m]}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def eggbox_to_json(s: FiniteSemigroup) -> dict:
    g = green_classes(s)
    lstar = starred_relation(s, LEFT)
    rstar = starred_relation(s, RIGHT)
    boxes = []
    for dcls in g.d.classes():
        rows = sorted({g.r.partition[x] for x in dcls})
        cols = sorted({g.l.partition[x] for x in dcls})
        grid = [[sorted(x for x in dcls
                        if g.r.partition[x] == r and g.l.partition[x] == co)
                 for co in cols] for r in rows]
        boxes.append({
            "elements": sorted(dcls),
            "r_classes": rows,
            "l_classes": cols,
            "grid": grid,
        })
    return {
        "order": s.order,
        "d_classes": boxes,
        "starred_overlay": {
            "L_star": eq_relation_to_json(lstar),
            "R_star": eq_relation_to_json(rstar),
        },
    }


def eggbox_to_dot(s: FiniteSemigroup) -> str:
    """The D-class grid: one HTML table node per D-class, R-classes as rows
    and L-classes as columns; each cell also carries the element's L*/R*
    class representatives as a starred overlay."""
    data = eggbox_to_json(s)
    lstar = starred_relation(s, LEFT)
    rstar = starred_relation(s, RIGHT)
    lines = ["digraph eggbox {", "  node [shape=plaintext];"]
    for i, box in enumerate(data["d_classes"]):
        rows_html = []
        for row in box["grid"]:
            cells = []
            for cell in row:
                entries = ["%s<BR/><FONT POINT-SIZE=\"8\">L*%d R*%d</FONT>" % (
                    s.name(x), lstar.partition[x], rstar.partition[x])
                    for x in cell]
                cells.append("<TD>" + ("<BR/>".join(entries) or "&nbsp;") + "</TD>")
            rows_html.append("<TR>" + "".join(cells) + "</TR>")
        label = ("<<TABLE BORDER=\"1\" CELLBORDER=\"1\" CELLSPACING=\"0\">"
                 + "".join(rows_html) + "</TABLE>>")
        lines.append(f"  d{i} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _category_ref(c: SubobjectCategory, file: str) -> dict:
    """A pointer to the category file `file`, with the sha256 of its text."""
    text = dumps(category_to_json(c))
    return {"file": file, "sha256": hashlib.sha256(text.encode("ascii")).hexdigest()}


def omega_to_json(omega) -> dict:
    """The cross-connection; its categories are referred to by file and
    digest, as `concordia roundtrip` writes them to lcat.json and rcat.json."""
    return {
        "left_category": _category_ref(omega.C, "lcat.json"),
        "right_category": _category_ref(omega.D, "rcat.json"),
        "gamma": {"objects": {str(k): v for k, v in sorted(omega.gamma.objects.items())},
                  "morphisms": {str(k): v for k, v in sorted(omega.gamma.morphisms.items())}},
        "delta": {"objects": {str(k): v for k, v in sorted(omega.delta.objects.items())},
                  "morphisms": {str(k): v for k, v in sorted(omega.delta.morphisms.items())}},
        "e_omega": [list(cd) for cd in omega.e_omega],
        "gamma_cones": {f"{c},{d}": cone_to_json(omega.cs_c.cones[i])
                        for (c, d), i in sorted(omega.gamma_of.items())},
        "delta_cones": {f"{c},{d}": cone_to_json(omega.cs_d.cones[i])
                        for (c, d), i in sorted(omega.delta_of.items())},
    }


def somega_to_json(somega) -> dict:
    return {
        "semigroup": semigroup_to_json(somega.semigroup),
        "linked_pairs": [
            {"id": i,
             "gamma": cone_to_json(somega.omega.cs_c.cones[g]),
             "delta": cone_to_json(somega.omega.cs_d.cones[d]),
             "anchor": list(somega.anchors[i])}
            for i, (g, d) in enumerate(somega.pairs)],
    }


def phi_to_json(cert) -> dict:
    return {
        "isomorphism": cert.ok,
        "mapping": list(cert.mapping),
        "homomorphism": cert.homomorphism,
        "injective": cert.injective,
        "surjective": cert.surjective,
        "weakly_reductive": cert.weakly_reductive,
    }


def icc_to_json(icc) -> dict:
    return {
        "objects": [list(cd) for cd in icc.objects],
        "morphisms": [
            {"id": m, "dom": i, "cod": j, "bimorphism": u,
             "label": icc.label(m)}
            for m, (i, j, u) in enumerate(icc.morphisms)],
        "order": sorted(map(list, icc.order)),
        "distinguished": {f"{i},{j}": m
                          for (i, j), m in sorted(icc.distinguished.items())},
        "restrictions": {f"{e},{m}": m1
                         for (e, m), m1 in sorted(icc.restriction.items())},
        "corestrictions": {f"{m},{f}": m1
                           for (m, f), m1 in sorted(icc.corestriction.items())},
    }


def icc_to_dot(icc) -> str:
    lines = ["digraph icc {", "  rankdir=BT;"]
    for i, cd in enumerate(icc.objects):
        lines.append(f'  p{i} [label="{icc.omega.pair_label(cd)}"];')
    for m, (i, j, u) in enumerate(icc.morphisms):
        lines.append(f'  p{i} -> p{j} [label="{icc.omega.C.label(u)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
