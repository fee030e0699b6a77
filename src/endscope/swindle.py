"""Finitary checks for the commutator constructions.

Homeomorphisms supported on bricks are modeled as slot-indexed maps: each
slot carries a reduced word over free generators 1..d (negative integers are
inverse letters), and an optional constant slot shift models the permutation
part. All infinite products are verified on a finite window; discrepancies
can occur only within one brick width of the window edge, so window edges are
excluded from every assertion. For `anderson` the window is the depth+1 rows
that u carries, every one checked; the edge is the next row, where the
truncated stack leaves h's inverse.

Contents:

  anderson                     write a brick-supported map as one commutator
                               [u, v] with v a row shift
  alternating_check            the two halves of a split carry mutually
                               inverse words under a slot bijection
  commutator_from_alternating  factor an alternating map as [f1, hmap]
  em_layout                    the interleaved red/blue layout whose two
                               readings h1, h2 both have alternating supports
  em_check                     replay every check on that layout
"""

from __future__ import annotations

from functools import cached_property

from . import _Frozen


class BadSupport(ValueError):
    pass


class BadSplit(ValueError):
    pass


class NotAlternating(ValueError):
    pass


# ---------------------------------------------------------------------------
# reduced words over free generators
#
# A word is a tuple of nonzero ints: k is the k-th generator, -k its inverse.


def reduce_word(letters) -> tuple:
    out = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def word_mul(*words) -> tuple:
    return reduce_word(x for w in words for x in w)


def word_inv(w) -> tuple:
    return tuple(-x for x in reversed(w))


# ---------------------------------------------------------------------------
# slot words


class SlotWord(_Frozen):
    """A finite assignment of reduced words to integer slots.

    Unassigned slots carry the identity. Its instances keep a `__dict__`,
    where `_words` stores its value, so it names its `_fields` itself.
    """

    _fields = ("assignment",)  # sorted tuple of (slot, word) pairs, words nonempty

    @cached_property
    def _words(self) -> dict:
        return dict(self.assignment)

    def word_at(self, slot: int) -> tuple:
        return self._words.get(slot, ())

    def support(self) -> tuple:
        return tuple(s for s, _ in self.assignment)

    def restrict(self, slots) -> "SlotWord":
        keep = set(slots)
        return SlotWord(tuple(p for p in self.assignment if p[0] in keep))


def slot_word(mapping) -> SlotWord:
    items = []
    for s, w in dict(mapping).items():
        w = reduce_word(w)
        if w:
            items.append((int(s), w))
    return SlotWord(tuple(sorted(items)))


EMPTY = SlotWord(())


def sw_mul(a: SlotWord, b: SlotWord) -> SlotWord:
    """Slotwise product (both maps diagonal, i.e. no permutation part)."""
    out = {}
    for s in set(a.support()) | set(b.support()):
        out[s] = word_mul(a.word_at(s), b.word_at(s))
    return slot_word(out)


# ---------------------------------------------------------------------------
# elements with a constant shift (permutation part s -> s + k)
#
# An element is a pair (k, words): k is the shift and words maps each slot of
# its support to a reduced nonempty word. Products keep the words reduced and
# nonempty, so no word is reduced twice and no support is sorted.


def _mul2(a: tuple, b: tuple) -> tuple:
    """reduce_word(a + b) for reduced a and b: only the junction cancels."""
    k, n = 0, min(len(a), len(b))
    while k < n and a[-1 - k] == -b[k]:
        k += 1
    return a[: len(a) - k] + b[k:]


def _e_mul(a: tuple, b: tuple) -> tuple:
    # (a.b) acts as a after b; the word at s is a's word there times b's word
    # pulled back through a's permutation
    k, out = a[0], dict(a[1])
    for s, w in b[1].items():
        s += k
        p = _mul2(out.get(s, ()), w)
        if p:
            out[s] = p
        else:
            del out[s]
    return k + b[0], out


def _e_inv(a: tuple) -> tuple:
    k = a[0]
    return -k, {s - k: word_inv(w) for s, w in a[1].items()}


def _e_commutator(a: tuple, b: tuple) -> tuple:
    return _e_mul(_e_mul(a, b), _e_mul(_e_inv(a), _e_inv(b)))


# ---------------------------------------------------------------------------
# the one-commutator trick


def anderson(h: SlotWord, depth: int):
    """Write h as the commutator [u, v] of a stacked product and a shift.

    h must live on the base brick row (slots 0 .. width-1). v shifts by one
    row; u carries a copy of h on each of the first depth+1 rows (0 .. depth).
    Returns (u, v, check) where v is the shift amount and check reports
    whether [u, v] agrees with h on every row u carries: h on row 0 and the
    identity on rows 1 .. depth. The edge row depth+1, where the truncated
    stack leaves h's inverse, is the one row not checked.
    """
    if any(s < 0 for s in h.support()):
        raise BadSupport("h must be supported on the base row (slots >= 0)")
    width = max(h.support(), default=0) + 1
    base = slot_word(h.assignment).assignment
    # every slot of base is below width, so the rows come out sorted
    u = SlotWord(tuple((s + i * width, w) for i in range(depth + 1) for s, w in base))
    shift, words = _e_commutator((0, dict(u.assignment)), (width, {}))
    check = shift == 0 and all(
        words.get(s, ()) == h.word_at(s) for s in range((depth + 1) * width)
    )
    return u, width, check


# ---------------------------------------------------------------------------
# alternating supports


def _check_split(f: SlotWord, split, conj):
    a1, a2 = tuple(split[0]), tuple(split[1])
    if set(a1) & set(a2):
        raise BadSplit("the two halves overlap")
    if sorted(conj) != sorted(a1) or sorted(conj[s] for s in conj) != sorted(a2):
        raise BadSplit("conj is not a bijection from the first half onto the second")
    if not set(f.support()) <= set(a1) | set(a2):
        raise BadSplit("f has support outside the split")
    return a1, a2


def alternating_check(f: SlotWord, split, conj) -> bool:
    """True iff the word at conj(s) is the inverse of the word at s."""
    a1, _ = _check_split(f, split, conj)
    return all(f.word_at(conj[s]) == word_inv(f.word_at(s)) for s in a1)


def commutator_from_alternating(f: SlotWord, split, conj):
    """Factor an alternating map as f = [f1, hmap].

    f1 is the restriction of f to the first half; hmap is the involution
    swapping the halves along conj. The factorization is verified slotwise.
    """
    if not alternating_check(f, split, conj):
        raise NotAlternating("the split does not carry mutually inverse words")
    a1, _ = _check_split(f, split, conj)
    f1 = f.restrict(a1)
    hmap = dict(conj)
    hmap.update({conj[s]: s for s in conj})
    # [f1, hmap]: conjugation by the involution moves the inverted words of
    # f1 onto the second half, which is exactly f there
    product = {}
    for s, w in f1.assignment:
        product[s] = w
        product[hmap[s]] = word_inv(w)
    if slot_word(product) != f:
        raise NotAlternating("slotwise factorization check failed")
    return f1, hmap


# ---------------------------------------------------------------------------
# the interleaved layout


class SlotLayout(_Frozen):
    """An ordered slot list: red slots, blue blocks, and the separator slots
    between them, which are in neither."""

    # red: slot indices of the red letters, in order
    # blue_blocks: (inverse-half slots, positive-half slots) per block
    __slots__ = ("red", "blue_blocks")

    def separators_ok(self) -> bool:
        groups = self.red + tuple(
            s for inv, pos in self.blue_blocks for s in inv + pos
        )
        tagged = sorted(groups)
        for a, b in zip(tagged, tagged[1:]):
            block_of = _group_key(self, a), _group_key(self, b)
            if block_of[0] != block_of[1] and b == a + 1:
                return False
        return True


def _group_key(layout: SlotLayout, slot: int):
    for k, r in enumerate(layout.red):
        if slot == r:
            return ("red", k)
    for k, (inv, pos) in enumerate(layout.blue_blocks):
        if slot in inv or slot in pos:
            return ("blue", k)
    return None


def em_layout(d: int):
    """Build the interleaved layout for letters 1..d.

    The layout alternates red slots (the letters of f, in order) with blue
    blocks: block k carries the inverse letters ~1..~k followed by the
    positive letters 1..k, with a separator slot between any two consecutive
    groups. Returns (layout, h1, h2) where h1 reads every lettered slot and
    h2 reads the blue slots only.
    """
    if d < 1:
        raise ValueError("need at least one letter")
    slots = 0
    words = {}
    red = []
    blue_blocks = []

    def emit(letter=None):
        nonlocal slots
        if letter is not None:
            words[slots] = (letter,)
        slots += 1
        return slots - 1

    for k in range(1, d + 1):
        red.append(emit(k))
        emit()  # separator
        inv_half = tuple(emit(-i) for i in range(1, k + 1))
        pos_half = tuple(emit(i) for i in range(1, k + 1))
        blue_blocks.append((inv_half, pos_half))
        if k < d:
            emit()  # separator

    layout = SlotLayout(tuple(red), tuple(blue_blocks))
    h1 = slot_word(words)
    h2 = slot_word({s: w for s, w in words.items() if s not in set(red)})
    return layout, h1, h2


def em_blue_groupings(layout: SlotLayout):
    """The alternating splits of h2: each blue block pairs ~i with i."""
    out = []
    for inv_half, pos_half in layout.blue_blocks:
        conj = dict(zip(inv_half, pos_half))
        out.append(((inv_half, pos_half), conj))
    return out


def em_regroupings(layout: SlotLayout):
    """The regrouped alternating splits of h1.

    Group k pairs {positive half of blue block k-1, red slot k} against the
    inverse half of blue block k, matching letters: the trailing positive
    half of the final blue block belongs to no complete group and is left
    out.
    """
    out = []
    for k, (inv_half, _) in enumerate(layout.blue_blocks):
        first = (layout.blue_blocks[k - 1][1] if k else ()) + (layout.red[k],)
        conj = dict(zip(first, inv_half))
        out.append(((first, inv_half), conj))
    return out


def em_check(d: int) -> dict:
    """Replay every check on the layout for letters 1..d."""
    layout, h1, h2 = em_layout(d)
    blue = [
        alternating_check(h2.restrict(split[0] + split[1]), split, conj)
        for split, conj in em_blue_groupings(layout)
    ]
    regrouped = [
        alternating_check(h1.restrict(split[0] + split[1]), split, conj)
        for split, conj in em_regroupings(layout)
    ]
    f = slot_word({s: h1.word_at(s) for s in layout.red})
    reconstruction = word_mul(*(f.word_at(s) for s in layout.red)) == tuple(
        range(1, d + 1)
    )
    # h2 and f have disjoint supports, so the slotwise identity h1 = h2.f
    # holds in both multiplication orders
    orders = []
    if sw_mul(h2, f) == h1:
        orders.append("h2.f")
    if sw_mul(f, h2) == h1:
        orders.append("f.h2")
    return {
        "letters": d,
        "separators": layout.separators_ok(),
        "blue_blocks": blue,
        "regrouped_blocks": regrouped,
        "reconstruction": reconstruction,
        "product_identity": "both" if len(orders) == 2 else "/".join(orders),
    }

