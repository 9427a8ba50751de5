"""Independent checks of the program's JSON outputs.

Nothing here imports the program: ranks come from a GF(2) span built in
this file, the census count from the 2-cyclotomic cosets.  Each check
returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import math

from inputs import pmul, spec_text

# Rows backed by a theorem: they must pass on every valid spec.
THEOREM_ROWS = (
    "|C| * |C-dual| = 2^(alpha+2*beta)",
    "C = double dual as sets",
    "dual is constacyclic",
    "Lee/Hamming isometry (seeded sample)",
    "binary image is double cyclic (block layout)",
)
IMAGE_OF_DUAL_ROW = "image of dual equals dual of image (block layout)"
SEPARABLE_DUAL_ROW = "separable dual formula reproduces the brute-force dual"
CARDINALITY_ROW = "cardinality formula vs closure oracle"


# ---------------------------------------------------------------------------
# ranks: the GF(2) span of the shift iterates of the generators


def _reduce_second(p: int, q: int, beta: int) -> tuple[int, int]:
    """Reduce p + u*q modulo x^beta - (1+u): a top coefficient c at x^(beta+k)
    becomes c*(1+u) at x^k."""
    for i in range(max(p.bit_length(), q.bit_length()) - 1, beta - 1, -1):
        cp, cq = (p >> i) & 1, (q >> i) & 1
        p ^= cp << i
        q ^= cq << i
        k = i - beta
        p ^= cp << k
        q ^= (cp ^ cq) << k
    return p, q


def _reduce_first(a: int, alpha: int) -> int:
    for i in range(a.bit_length() - 1, alpha - 1, -1):
        if (a >> i) & 1:
            a ^= (1 << i) | (1 << (i - alpha))
    return a


def generator_words(spec: dict) -> list[int]:
    """The generators (a, 0) and (l, y) as packed words: bits [0, alpha) the
    binary block, then the 1-parts, then the u-parts of the R block."""
    alpha, beta = spec["alpha"], spec["beta"]
    if spec["case"] == 1:
        yp, yq = spec["g"], 0
    elif spec["case"] == 2:
        yp, yq = 0, spec["g"]
    else:
        yp, yq = pmul(spec["f"], spec["g"]), 0
    yp, yq = _reduce_second(yp, yq, beta)
    return [
        _reduce_first(spec["a"], alpha),
        _reduce_first(spec["l"], alpha) | (yp << alpha) | (yq << (alpha + beta)),
    ]


def _times_x(w: int, alpha: int, beta: int) -> int:
    amask, bmask = (1 << alpha) - 1, (1 << beta) - 1
    a, p, q = w & amask, (w >> alpha) & bmask, w >> (alpha + beta)
    a = ((a << 1) | (a >> (alpha - 1))) & amask
    cp, cq = p >> (beta - 1), q >> (beta - 1)
    p = ((p << 1) & bmask) | cp
    q = ((q << 1) & bmask) | (cp ^ cq)
    return a | (p << alpha) | (q << (alpha + beta))


def _times_u(w: int, alpha: int, beta: int) -> int:
    p = (w >> alpha) & ((1 << beta) - 1)
    return p << (alpha + beta)


def rank(spec: dict) -> int:
    """log2 of the code size: the GF(2) rank of x^i*G and x^i*u*G over the
    generators G and 0 <= i < 2*lcm(alpha, beta), the order of the shift."""
    alpha, beta = spec["alpha"], spec["beta"]
    pivots: dict[int, int] = {}
    for w in generator_words(spec):
        for _ in range(2 * math.lcm(alpha, beta)):
            for v in (w, _times_u(w, alpha, beta)):
                while v:
                    top = v.bit_length() - 1
                    if top not in pivots:
                        pivots[top] = v
                        break
                    v ^= pivots[top]
            w = _times_x(w, alpha, beta)
    return len(pivots)


# ---------------------------------------------------------------------------
# census: the CRT product over the irreducible factors


def coset_sizes(n: int) -> list[int]:
    """Sizes of the 2-cyclotomic cosets mod n (odd n): the degrees of the
    irreducible factors of x^n - 1."""
    seen, sizes = set(), []
    for i in range(n):
        if i in seen:
            continue
        j, size = i, 0
        while j not in seen:
            seen.add(j)
            j = 2 * j % n
            size += 1
        sizes.append(size)
    return sizes


def census_count(alpha: int, beta: int) -> int:
    """Prod over shared factors of (2q+4), times 2 per factor of x^alpha-1
    only and 3 per factor of x^beta-1 only; q = 2^deg.  The shared factors
    are those of x^gcd(alpha, beta) - 1."""
    shared = coset_sizes(math.gcd(alpha, beta))
    count = 1
    for size in shared:
        count *= 2 * 2**size + 4
    count *= 2 ** (len(coset_sizes(alpha)) - len(shared))
    count *= 3 ** (len(coset_sizes(beta)) - len(shared))
    return count


# ---------------------------------------------------------------------------
# checks on the program's JSON documents


def _rows(doc: dict) -> dict[str, dict]:
    return {row["check"]: row for row in doc.get("rows", [])}


def _observed_size(row: dict) -> "int | None":
    # detail: "stated <n>, observed <m>"
    try:
        return int(row["detail"].split("observed ")[1].split()[0])
    except (IndexError, ValueError):
        return None


def check_verify_sample(doc: dict, spec: dict, expected_rank: int) -> list[str]:
    problems = []
    rows = _rows(doc)
    if doc.get("command") != "verify":
        return [f"not a verify report: {doc.get('command')!r}"]
    if doc.get("spec") != spec_text(spec).strip().splitlines():
        problems.append(f"report is for spec {doc.get('spec')}")
    if rows.get("spec validation", {}).get("status") != "pass":
        problems.append("spec validation did not pass")
    card = rows.get(CARDINALITY_ROW)
    size = _observed_size(card) if card else None
    if size != 1 << expected_rank:
        problems.append(f"closure size {size}, independent rank gives {1 << expected_rank}")
    required = list(THEOREM_ROWS)
    if IMAGE_OF_DUAL_ROW in rows:
        required.append(IMAGE_OF_DUAL_ROW)
    if spec["l"] == 0:
        required.append(SEPARABLE_DUAL_ROW)
    for name in required:
        status = rows.get(name, {}).get("status")
        if status != "pass":
            problems.append(f"theorem row {name!r} is {status!r}")
    return problems


def check_verify_full(doc: dict) -> list[str]:
    problems = []
    rows = _rows(doc)
    n = 7 + 2 * 7
    card = rows.get(CARDINALITY_ROW)
    if card is None or _observed_size(card) != 1 << n:
        problems.append(f"|C| is not 2^{n}")
    dual_row = rows.get("dual is constacyclic", {})
    if dual_row.get("status") != "pass" or dual_row.get("detail") != "dual of size 1":
        problems.append("dual is not the zero code")
    image = rows.get("measured binary image parameters", {}).get("detail")
    if image != f"[{n},{n},1]":
        problems.append(f"image parameters {image}, expected [{n},{n},1]")
    for name in THEOREM_ROWS:
        if rows.get(name, {}).get("status") != "pass":
            problems.append(f"theorem row {name!r} did not pass")
    return problems


def check_census(doc: dict, alpha: int, beta: int) -> list[str]:
    row = (doc.get("table") or [{}])[0]
    if (row.get("alpha"), row.get("beta")) != (alpha, beta):
        return [f"census row is for ({row.get('alpha')},{row.get('beta')})"]
    want = census_count(alpha, beta)
    if row.get("census") != want:
        return [f"census ({alpha},{beta}) = {row.get('census')}, CRT product gives {want}"]
    return []
