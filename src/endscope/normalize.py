"""Rewriting terms to a canonical form.

Rules, applied bottom-up to a fixed point:

  R1  flatten nested Sum nodes
  R2  deduplicate Mix and Cantor component multisets (each component appears
      infinitely often / densely, so multiplicity is invisible)
  R3  a Cantor component directly under a same-colored Cantor node is
      absorbed into the parent (dense-in-dense is dense)
  R4  a Sum part, Mix component, or Cantor component is dropped when a
      sibling already realizes every one of its point classes at an
      accumulation site (so adding copies changes nothing up to
      homeomorphism); decided on the germ engine's memoized class sets
  R5  a countable all-planar subterm collapses to its rank/degree canonical
      form Ord(rank, degree)

`normalize_structural` is one bottom-up `_pass`, R1/R2/R3/R5 only: the
children come back normal and the node rules leave nothing for a second pass
to rewrite. It has no dependency on the germ machinery; the germ engine
itself canonicalizes through it. The other rewriters are one loop,
`fixpoint(t, passes)`, which applies its passes in order until a whole round
changes nothing. `normalize` runs
`(normalize_structural, _absorb_pass)`, adding R4. `germs.canon` runs
`(normalize_structural, _canon_pass, _absorb_pass)`: the same list with the
two homeomorphism rewrites of `_canon_pass` before R4. R4 keeps the first of
two mutually absorbable siblings, so the pass order fixes the result. R4 reads
the class set `germs` keeps per term, so rewriting never builds a `GermTable`.
"""

from __future__ import annotations

from .terms import (
    Cantor,
    Mix,
    Ord,
    Pt,
    Sum,
    Term,
    cb_rank,
    has_genus,
    is_countable,
    mk_cantor,
    mk_mix,
    require_valid,
)


def fixpoint(t: Term, passes) -> Term:
    """Apply `passes` in order until a whole round leaves t unchanged."""
    while True:
        prev = t
        for p in passes:
            t = p(t)
        if t == prev:
            return t


def normalize_structural(t: Term) -> Term:
    """R1/R2/R3/R5 in one bottom-up pass, which is a fixed point."""
    return _pass(t)


def _pass(t: Term) -> Term:
    if isinstance(t, Pt):
        return _collapse(t)
    if isinstance(t, Ord):
        return t
    if isinstance(t, Mix):
        comps = list(dict.fromkeys(_splice_sums(_pass(c) for c in t.components)))
        return _collapse(mk_mix(comps, t.limit_color))
    if isinstance(t, Cantor):
        comps = []
        for c in _splice_sums(_pass(c) for c in t.components):
            # R3: same-color Cantor child dissolves into the parent
            if isinstance(c, Cantor) and c.color is t.color:
                comps.extend(c.components)
            else:
                comps.append(c)
        return _collapse(mk_cantor(list(dict.fromkeys(comps)), t.color))
    parts = _splice_sums(_pass(p) for p in t.parts)  # R1
    if len(parts) == 1:
        return parts[0]
    return _collapse(Sum(tuple(parts)))


def _splice_sums(comps) -> list:
    """A Sum component of a Mix/Cantor node contributes its parts directly:
    inserting one copy of A + B per site is inserting one A and one B."""
    out = []
    for c in comps:
        if isinstance(c, Sum):
            out.extend(c.parts)
        else:
            out.append(c)
    return out


def _collapse(t: Term) -> Term:
    """R5: countable all-planar terms take their canonical form."""
    if is_countable(t) and not has_genus(t):
        rank, degree = cb_rank(t)
        canonical = Ord(rank, degree)
        if canonical != t:
            return canonical
    return t


def normalize(t: Term) -> Term:
    """Full normal form: structural rules plus sibling absorption (R4)."""
    require_valid(t)
    return fixpoint(t, (normalize_structural, _absorb_pass))


def _absorb_pass(t: Term) -> Term:
    """R4, one bottom-up pass."""
    from .germs import absorbable  # deferred: germs canonicalizes via this module

    return _absorb(t, absorbable)


def _absorb(t: Term, absorbable) -> Term:
    if isinstance(t, (Pt, Ord)):
        return t
    if isinstance(t, (Mix, Cantor)):
        comps = [_absorb(c, absorbable) for c in t.components]
        comps = _drop_absorbed(comps, absorbable)
        if isinstance(t, Mix):
            return mk_mix(comps, t.limit_color)
        return mk_cantor(comps, t.color)
    parts = [_absorb(p, absorbable) for p in t.parts]
    parts = _drop_absorbed(parts, absorbable)
    if len(parts) == 1:
        return parts[0]
    return Sum(tuple(parts))


def _drop_absorbed(items: list, absorbable) -> list:
    out = list(items)
    i = 0
    while i < len(out):
        rest = out[:i] + out[i + 1 :]
        if rest and any(absorbable(out[i], b) for b in rest):
            del out[i]
        else:
            i += 1
    return out
