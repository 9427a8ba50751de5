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

from dataclasses import dataclass

import numpy as np

from .gf2poly import bit_reverse
from .ringr import RElem
from .codewords import DEFAULT_BUDGET, CodeSet, CodeSpec, Codeword, require_valid
from .duality import dual_bruteforce

LAYOUTS = ("interleaved", "block")


def gray_symbol(e: RElem) -> tuple[int, int]:
    """Per-symbol image: 0->(0,0), 1->(0,1), u->(1,1), 1+u->(1,0)."""
    return (e.q, e.p ^ e.q)


@dataclass(frozen=True)
class BinaryWord:
    """Binary image word with its coordinate layout tag."""

    bits: tuple[int, ...]
    layout: str

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self):
        return "".join(map(str, self.bits))


def gray_block_packed(w, alpha: int, beta: int):
    """Block-layout image on packed words: (a, p, q) -> (a, q, p^q)."""
    amask = (1 << alpha) - 1
    bmask = (1 << beta) - 1
    a = w & amask
    p = (w >> alpha) & bmask
    q = (w >> (alpha + beta)) & bmask
    return a | (q << alpha) | ((p ^ q) << (alpha + beta))


def gray_interleaved_packed(w, alpha: int, beta: int):
    """Interleaved-layout image: symbol j occupies bits alpha+2j, alpha+2j+1."""
    amask = (1 << alpha) - 1
    out = w & amask
    for j in range(beta):
        y = (w >> (alpha + beta + j)) & 1
        xy = ((w >> (alpha + j)) & 1) ^ y
        out = out | (y << (alpha + 2 * j)) | (xy << (alpha + 2 * j + 1))
    return out


def _gray_packed(w, alpha: int, beta: int, layout: str):
    if layout == "block":
        return gray_block_packed(w, alpha, beta)
    if layout == "interleaved":
        return gray_interleaved_packed(w, alpha, beta)
    raise ValueError(f"unknown layout {layout!r}")


def gray_map(c: Codeword, layout: str = "interleaved") -> BinaryWord:
    """Image of one codeword; length alpha + 2*beta."""
    packed = _gray_packed(c.to_packed(), c.alpha, c.beta, layout)
    n = c.alpha + 2 * c.beta
    return BinaryWord(tuple((packed >> i) & 1 for i in range(n)), layout)


def lee_weight(c: Codeword) -> int:
    """Symbol weights 0,1,2,1 for 0,1,u,1+u plus binary Hamming weight."""
    return sum(c.a) + sum(e.lee_weight() for e in c.b)


def lee_distance(c1: Codeword, c2: Codeword) -> int:
    return lee_weight(c1 + c2)


def _popcount(v):
    return v.bit_count() if isinstance(v, int) else np.bitwise_count(v)


def lee_weight_packed(w, alpha: int, beta: int):
    """Lee weight of a packed word, or elementwise of an int64 array.

    Read from the symbol bits, not through the Gray map: one per set
    binary bit, and for the symbol p + u*q one for p | q plus one more
    for q & ~p, which gives 0, 1, 2, 1 for 0, 1, u, 1+u.
    """
    bmask = (1 << beta) - 1
    a = w & ((1 << alpha) - 1)
    p = (w >> alpha) & bmask
    q = (w >> (alpha + beta)) & bmask
    return _popcount(a) + _popcount(p | q) + _popcount(q & ~p)


def gray_image(code: CodeSet, layout: str = "interleaved") -> CodeSet:
    """Image of the whole set: the binary code of length alpha + 2*beta
    spanned by the images of the basis."""
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}")
    images = (_gray_packed(b, code.alpha, code.beta, layout) for b in code.basis)
    return CodeSet.from_basis(code.n, 0, images)


def min_distance(code: CodeSet) -> int:
    """Minimum nonzero Lee weight, by exhaustive scan.

    At beta = 0 this is the minimum Hamming weight of a binary code.
    """
    if len(code) < 2:
        raise ValueError("minimum distance requires at least two codewords")
    arr = code.packed()
    imgs = gray_block_packed(arr[arr != 0], code.alpha, code.beta)
    return int(np.bitwise_count(imgs).min())


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
    da = spec.a.degree
    if spec.case == 1:
        return n - da - spec.g.degree
    if spec.case == 2:
        # "deg g(x^beta - 1)" resolved as deg(g) + beta.
        return n - da - (spec.g.degree + spec.beta)
    return n - da - spec.f.degree - spec.g.degree


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


def self_dual_transfer(code: CodeSet, budget: int = DEFAULT_BUDGET) -> SelfDualTransferReport:
    """Check phi(C-dual) = phi(C)-dual; for self-dual C also check the
    image is binary self-dual."""
    dual = dual_bruteforce(code, budget)
    equal = {}
    image_self = {}
    self_dual = dual == code
    for layout in LAYOUTS:
        img = gray_image(code, layout)
        dual_of_img = dual_bruteforce(img, budget)
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
    values = sorted(bit_reverse(int(w), n) for w in bcode.packed())
    lines = [f"n={n} k={bcode.rank} d={d} layout={layout}"]
    lines.extend(f"{v:0{width}x}" for v in values)
    return "\n".join(lines) + "\n"
