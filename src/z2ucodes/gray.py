"""The Gray map, Lee weight, binary images, double cyclicity and
self-duality transfer.

Per symbol x + u*y the map sends (x, y) to (y, x + y), so it is
GF(2)-linear and injective on the packed representation: the image of
a code set is the binary linear code spanned by the images of its basis.

Two coordinate layouts are first class: ``interleaved`` keeps the two
image bits of each symbol adjacent, ``block`` groups all first image
bits and then all second image bits.  The layouts differ by a fixed
coordinate permutation, so weights agree; cyclicity claims do not, and
double cyclicity holds in block layout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .gf2poly import bit_reverse
from .codewords import CodeSet, CodeSpec, require_valid
from .duality import dual_bruteforce

LAYOUTS = ("interleaved", "block")


def gray_block_packed(w, alpha: int, beta: int):
    """Block-layout image on packed words: (a, p, q) -> (a, q, p^q)."""
    amask = (1 << alpha) - 1
    bmask = (1 << beta) - 1
    a = w & amask
    p = (w >> alpha) & bmask
    q = (w >> (alpha + beta)) & bmask
    return a | (q << alpha) | ((p ^ q) << (alpha + beta))


@functools.lru_cache(maxsize=256)
def _spread_steps(beta: int) -> tuple[tuple[int, int], ...]:
    """The (shift, mask) steps that move bit j of a beta-bit word to bit 2j.

    Step s = 2^i, from the largest power of two below beta down to 1,
    keeps the bits whose position mod 2s is below s; every intermediate
    position is at most the final one, so the masks stop at 2*beta bits.
    """
    width = (1 << (2 * beta)) - 1
    steps = []
    s = 1
    while s < beta:
        block = (1 << s) - 1
        mask = 0
        for start in range(0, 2 * beta, 2 * s):
            mask |= block << start
        steps.append((s, mask & width))
        s *= 2
    return tuple(steps[::-1])


def gray_interleaved_packed(w, alpha: int, beta: int):
    """Interleaved-layout image: symbol j occupies bits alpha+2j, alpha+2j+1,
    the u-component q_j and then p_j ^ q_j."""
    bmask = (1 << beta) - 1
    p = (w >> alpha) & bmask
    q = (w >> (alpha + beta)) & bmask
    pq = p ^ q
    for s, mask in _spread_steps(beta):
        q = (q | (q << s)) & mask
        pq = (pq | (pq << s)) & mask
    return (w & ((1 << alpha) - 1)) | (q << alpha) | (pq << (alpha + 1))


def _gray_packed(w, alpha: int, beta: int, layout: str):
    if layout == "block":
        return gray_block_packed(w, alpha, beta)
    if layout == "interleaved":
        return gray_interleaved_packed(w, alpha, beta)
    raise ValueError(f"unknown layout {layout!r}")


def lee_weight_packed(w: int, alpha: int, beta: int) -> int:
    """Lee weight of a packed word.

    Read from the symbol bits, not through the Gray map: one per set
    binary bit, and for the symbol p + u*q one for p | q plus one more
    for q & ~p, which gives 0, 1, 2, 1 for 0, 1, u, 1+u.
    """
    bmask = (1 << beta) - 1
    a = w & ((1 << alpha) - 1)
    p = (w >> alpha) & bmask
    q = (w >> (alpha + beta)) & bmask
    return a.bit_count() + (p | q).bit_count() + (q & ~p).bit_count()


def gray_image(code: CodeSet, layout: str = "interleaved") -> CodeSet:
    """Image of the whole set: the binary code of length alpha + 2*beta
    spanned by the images of the basis."""
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}")
    images = (_gray_packed(b, code.alpha, code.beta, layout) for b in code.basis)
    return CodeSet.from_basis(code.n, 0, images)


def _systematic(rows: list[int], prefer: int) -> tuple[list[int], int]:
    """Fully reduced rows spanning the same space, and their pivot mask.

    A row takes its pivot in ``prefer`` whenever its reduced form has a
    bit there, so the pivots in ``prefer`` number the rank of the rows
    restricted to those columns.
    """
    out: list[tuple[int, int]] = []
    for r in rows:
        for bit, p in out:
            if r & bit:
                r ^= p
        bit = r & prefer or r
        bit &= -bit
        out = [(b, p ^ r if p & bit else p) for b, p in out]
        out.append((bit, r))
    return [p for _, p in out], sum(b for b, _ in out)


def _lightest(rows: list[int], w: int, start: int = 0, acc: int = 0) -> int:
    """Least weight of acc XOR w distinct rows from rows[start:]."""
    if w == 1:
        return min((acc ^ r).bit_count() for r in rows[start:])
    return min(
        _lightest(rows, w - 1, i + 1, acc ^ rows[i]) for i in range(start, len(rows) - w + 1)
    )


def min_distance(code: CodeSet) -> int:
    """Minimum nonzero Lee weight, by the Brouwer-Zimmermann search on
    the basis of the block-layout Gray image.

    The Gray map is linear and its Hamming weight is the Lee weight, so
    the mapped basis spans a binary code of the same minimum weight.
    Systematic forms j = 0, 1, ... of that basis take k_j pivots in
    columns no earlier form used.  A word that is no XOR of at most w
    rows of form j has at least w + 1 ones on its k pivots, so at least
    w + 1 - (k - k_j) on the k_j new ones.  Once these bounds, summed
    over the disjoint new columns, reach the lightest word seen, that
    word is the lightest (Grassl, "Searching for linear codes with large
    minimum distance", 2006).  No word set is built, and the words have
    no width limit.

    At beta = 0 this is the minimum Hamming weight of a binary code.
    """
    if code.rank < 1:
        raise ValueError("minimum distance requires at least two codewords")
    images = [gray_block_packed(b, code.alpha, code.beta) for b in code.basis]
    k = len(images)
    forms = []
    covered = 0
    while True:
        rows, pivots = _systematic(images, ~covered)
        new = (pivots & ~covered).bit_count()
        if not new:
            break
        forms.append((rows, k - new))
        covered |= pivots
    best = code.n
    for w in range(1, k + 1):
        best = min(best, *(_lightest(rows, w) for rows, _ in forms))
        if sum(max(0, w + 1 - old) for _, old in forms) >= best:
            break
    return best


def is_double_cyclic(bcode: CodeSet, alpha: int, two_beta: int) -> bool:
    """Closure under the simultaneous cyclic shift of both blocks.

    The shift is linear and bijective, so checking the basis suffices.
    """
    if bcode.n != alpha + two_beta:
        raise ValueError("word length does not match alpha + 2*beta")
    amask = (1 << alpha) - 1
    ymask = (1 << two_beta) - 1
    for w in bcode.basis:
        a = w & amask
        y = w >> alpha
        if alpha:
            a = ((a << 1) | (a >> (alpha - 1))) & amask
        if two_beta:
            y = ((y << 1) | (y >> (two_beta - 1))) & ymask
        if not bcode.contains_packed(a | (y << alpha)):
            return False
    return True


def gray_dimension_formula(spec: CodeSpec) -> int:
    """Predicted binary image dimension from the generator degrees."""
    require_valid(spec)
    n = spec.alpha + 2 * spec.beta
    da = spec.a.bit_length() - 1
    dg = spec.g.bit_length() - 1
    if spec.case == 1:
        return n - da - dg
    if spec.case == 2:
        # "deg g(x^beta - 1)" resolved as deg(g) + beta.
        return n - da - (dg + spec.beta)
    return n - da - (spec.f.bit_length() - 1) - dg


@dataclass
class SelfDualTransferReport:
    """phi(C-dual) versus phi(C)-dual, per layout."""

    image_dual_equal: dict
    code_self_dual: bool
    image_self_dual: "dict | None"

    def ok(self) -> bool:
        checks = all(self.image_dual_equal.values())
        if self.code_self_dual and self.image_self_dual is not None:
            checks = checks and all(self.image_self_dual.values())
        return checks


def self_dual_transfer(code: CodeSet) -> SelfDualTransferReport:
    """Check phi(C-dual) = phi(C)-dual; for self-dual C also check the
    image is binary self-dual."""
    dual = dual_bruteforce(code)
    equal = {}
    image_self = {}
    self_dual = dual == code
    for layout in LAYOUTS:
        img = gray_image(code, layout)
        dual_of_img = dual_bruteforce(img)
        equal[layout] = gray_image(dual, layout) == dual_of_img
        if self_dual:
            image_self[layout] = img == dual_of_img
    return SelfDualTransferReport(equal, self_dual, image_self if self_dual else None)


def format_binary_code(bcode: CodeSet, layout: str, d: "int | None" = None) -> str:
    """Golden-file export: header then sorted hex words, one per line.

    Words are encoded with the first coordinate as the most significant
    bit and sorted ascending.
    """
    if d is None:
        d = min_distance(bcode) if bcode.rank > 0 else 0
    n = bcode.n
    width = (n + 3) // 4
    values = sorted(bit_reverse(w, n) for w in bcode.packed())
    lines = [f"n={n} k={bcode.rank} d={d} layout={layout}"]
    lines.extend(f"{v:0{width}x}" for v in values)
    return "\n".join(lines) + "\n"
