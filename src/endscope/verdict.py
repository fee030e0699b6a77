"""Automatic-continuity verdicts.

An end class is telescoping when it is

  case i    an isolated puncture class: planar, not of cantor kind, with no
            class accumulating onto it;
  case ii   of cantor kind; or
  case iii  a successor whose maximal predecessors are all of cantor kind,
            provided a genus-colored end is not isolated among genus ends.

A surface has the automatic continuity property exactly when every end class
is telescoping (given stability, which the term grammar guarantees). The
failure cases F1/F2/F3 select the witness construction reported for the
negative direction. Stone-space verdicts only need stability and never fail.

Reading note carried in every report: for planar ends, case iii drops the
genus-isolation clause (it constrains genus-colored ends only).
"""

from __future__ import annotations

from . import _Frozen
from .germs import (
    CANTOR,
    GermTable,
    Member,
    Successor,
    cantor_type,
    derive_table,
    family_accumulates,
    isolated_in_Eg,
    predecessors,
    _resolve,
    _strictly_below,
)
from .ordinals import ONE, cmp
from .stability import Stable, stable_nbhd
from .terms import (
    Color,
    SurfaceDescriptor,
    ValidationError,
    surface_check,
)


CASE_NOTE = (
    "planar successor ends accept case iii without the genus-isolation clause"
)
EQUIV_NOTE = "class equivalence is decided modulo engine invariants"

WITNESSES = {
    "F1": "curve-separating-genus",
    "F2": "puncture-count curve",
    "F3": "pair-of-pants chain",
}


class TelescopingResult(_Frozen):
    # status: "telescoping" | "not_telescoping"
    # case: "i" | "ii" | "iii"
    # failure: "F1" | "F2" | "F3"
    __slots__ = ("id", "status", "case", "failure")
    _defaults = {"case": None, "failure": None}


class Verdict(_Frozen):
    """The verdict, with the facts behind it: `per_class` holds the telescoping
    result and `stability` the `stable_nbhd` result of each row of `table`,
    in table order."""

    # ac: "holds" | "fails" | "unknown"
    __slots__ = ("ac", "basis", "per_class", "witness", "notes", "table", "stability")
    _defaults = {"witness": None, "notes": (CASE_NOTE, EQUIV_NOTE), "table": None,
                 "stability": None}


def telescoping(table: GermTable, x: str, surface_context: bool = True) -> TelescopingResult:
    row = _resolve(table, x)
    if isinstance(row, Member):
        if row.rank.is_zero():
            return TelescopingResult(x, "telescoping", case="i")
        return TelescopingResult(x, "not_telescoping", failure="F2")
    if row.kind == CANTOR:
        return TelescopingResult(x, "telescoping", case="ii")
    if row.family and row.family_bound is not None:
        # derived rank family: members of rank >= 1 sit over countable classes
        if cmp(row.family_bound, ONE) > 0:
            return TelescopingResult(x, "not_telescoping", failure="F2")
        return TelescopingResult(x, "telescoping", case="i")
    if row.color is Color.PLANAR and not table.acc_into[table.position[row.id]]:
        return TelescopingResult(x, "telescoping", case="i")
    preds = predecessors(table, x)
    if isinstance(preds, Successor) and all(
        cantor_type(table, m) for m in preds.preds
    ):
        blocked = (
            surface_context
            and row.color is Color.GENUS
            and isolated_in_Eg(table, x)
        )
        if not blocked:
            return TelescopingResult(x, "telescoping", case="iii")
    return TelescopingResult(x, "not_telescoping", failure=_failure(table, row, x))


def _failure(table: GermTable, row, x: str) -> str:
    """F1, F2 or F3 for a row that `telescoping` found not telescoping."""
    if not row.family and row.color is Color.GENUS and isolated_in_Eg(table, x):
        return "F1"
    # F2: a countable class sits strictly below x
    if any(z.kind != CANTOR for z in table.rows_in(_strictly_below(table, row))):
        return "F2"
    return "F3"


# ---------------------------------------------------------------------------
# verdicts


def _witness(failures) -> str:
    """The witness construction of the first of F1, F2, F3 in `failures`."""
    for f in ("F1", "F2", "F3"):
        if f in failures:
            return WITNESSES[f]
    return None


def surface_verdict(s) -> Verdict:
    if isinstance(s, SurfaceDescriptor):
        surface_check(s.genus, s.ends)
        return _verdict(derive_table(s.ends), surface=True)
    if isinstance(s, GermTable):
        if not s.surface:
            raise ValidationError("germ table is not marked as a surface input")
        return _verdict(s, surface=True)
    raise ValidationError(f"not a surface input: {s!r}")


def stone_verdict(t) -> Verdict:
    if isinstance(t, SurfaceDescriptor):
        raise ValidationError("stone verdicts take a term or germ table")
    table = t if isinstance(t, GermTable) else derive_table(t)
    return _verdict(table, surface=False)


def _verdict(table: GermTable, surface: bool) -> Verdict:
    """The verdict from one `stable_nbhd` and one `telescoping` per class.
    With every class stable a surface verdict follows the telescoping
    criterion and a Stone verdict holds; otherwise a surface verdict can
    still fail by the sufficiency conditions."""
    stability = tuple(stable_nbhd(table, r.id) for r in table.classes)
    per_class = tuple(telescoping(table, r.id, surface) for r in table.classes)
    facts = dict(table=table, stability=stability)
    if all(isinstance(v, Stable) for v in stability):
        if not surface:
            return Verdict("holds", "stable-stone", per_class, **facts)
        witness = _witness([p.failure for p in per_class])
        ac = "holds" if witness is None else "fails"
        return Verdict(ac, "telescoping-criterion", per_class, witness, **facts)
    witness = _sufficiency_witness(table) if surface else None
    if witness is not None:
        return Verdict("fails", "sufficiency", per_class, witness, **facts)
    return Verdict("unknown", "open-question", per_class, **facts)


def _sufficiency_witness(table: GermTable) -> str:
    """The witness of the first sufficiency failure F1, F2, F3 that some
    class shows, or None."""
    hits = []
    for r in table.classes:
        if r.kind == CANTOR:
            continue
        if r.color is Color.GENUS and isolated_in_Eg(table, r.id):
            hits.append("F1")
            continue
        preds = predecessors(table, r.id)
        if isinstance(preds, Successor) and any(
            not cantor_type(table, m) for m in preds.preds
        ):
            hits.append("F2")
            continue
        if family_accumulates(table, r.id):
            hits.append("F3")
    return _witness(hits)
