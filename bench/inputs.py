"""Seeded workload inputs, built without the program's own code.

GF(2) polynomials are plain ints (bit i = coefficient of x^i).  The
valid-spec enumeration restates the structural constraints of the spec
format so that the sample does not move when the program's own
enumeration order changes.
"""

from __future__ import annotations

import random
from pathlib import Path

# verify, first operation of a round: the whole ambient space at (7, 7),
# case 1, a = g = 1, l = 0.
FULL_SPEC = {"alpha": 7, "beta": 7, "case": 1, "a": 1, "l": 0, "g": 1, "f": None}

# verify, the rest of a round: (alpha, beta) -> (specs per stratum, rank
# bands).  A stratum is (case, separable, rank band); the bands split the
# rank range [RANK_MARGIN, n - RANK_MARGIN] into equal parts.
SAMPLE_PLAN = {(7, 7): (6, 3), (3, 7): (1, 1), (7, 3): (1, 1)}
# Codes and duals below 2^RANK_MARGIN words are left out: their duals or
# images have 2^(n - rank) words, and one such spec costs as much as ten
# others, which would make a round's time hang on the draw.
RANK_MARGIN = 4

# census: odd pairs whose brute-force census takes about a second each.
CENSUS_PAIRS = [(3, 3), (1, 5), (5, 3)]


def deg(p: int) -> int:
    return p.bit_length() - 1


def pmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def pmod(a: int, b: int) -> int:
    db = deg(b)
    while a and deg(a) >= db:
        a ^= b << (deg(a) - db)
    return a


def pdiv(a: int, b: int) -> int:
    q = 0
    db = deg(b)
    while a and deg(a) >= db:
        s = deg(a) - db
        q |= 1 << s
        a ^= b << s
    return q


def divides(d: int, p: int) -> bool:
    return pmod(p, d) == 0


def xn1(n: int) -> int:
    return (1 << n) | 1


def divisors(n: int) -> list[int]:
    """Every monic divisor of x^n - 1, by trial division."""
    return [d for d in range(1, 1 << (n + 1)) if divides(d, xn1(n))]


def poly_text(p: int) -> str:
    if p == 0:
        return "0"
    terms = []
    for i in range(deg(p) + 1):
        if (p >> i) & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(terms)


def spec_text(spec: dict) -> str:
    lines = [
        f"alpha = {spec['alpha']}",
        f"beta = {spec['beta']}",
        f"case = {spec['case']}",
        f"a = {poly_text(spec['a'])}",
        f"l = {poly_text(spec['l'])}",
        f"g = {poly_text(spec['g'])}",
    ]
    if spec["f"] is not None:
        lines.append(f"f = {poly_text(spec['f'])}")
    return "\n".join(lines) + "\n"


def valid_specs(alpha: int, beta: int) -> list[dict]:
    """All valid specs at (alpha, beta); case 3 skips f = 1 (a case-1 spec).

    Constraints: a | x^alpha-1, g | x^beta-1, f | g, deg l < deg a, and
    a | ((x^beta-1)/g)*l in case 2, a | (x^beta-1)*l otherwise.
    """
    out = []
    xb = xn1(beta)
    for case in (1, 2, 3):
        for g in divisors(beta):
            fs = [f for f in divisors(beta) if f != 1 and divides(f, g)] if case == 3 else [None]
            window = pdiv(xb, g) if case == 2 else xb
            for f in fs:
                for a in divisors(alpha):
                    for l in range(1 << deg(a)):
                        if divides(a, pmul(window, l)):
                            out.append(
                                {"alpha": alpha, "beta": beta, "case": case,
                                 "a": a, "l": l, "g": g, "f": f}
                            )
    return out


def sample_specs(seed: int, rank) -> list[tuple[dict, int]]:
    """Stratified sample of (spec, rank) pairs, in seeded order.

    ``rank`` gives log2 |C| of a spec.  Each (case, separable) stratum of
    SAMPLE_PLAN is walked in seeded order, filling every rank band of it
    with the stated number of specs.
    """
    rng = random.Random(seed)
    chosen = []
    for (alpha, beta), (per_band, bands) in SAMPLE_PLAN.items():
        lo, hi = RANK_MARGIN, alpha + 2 * beta - RANK_MARGIN
        width = (hi - lo + 1) / bands
        pool = valid_specs(alpha, beta)
        for case in (1, 2, 3):
            for separable in (True, False):
                stratum = [s for s in pool if s["case"] == case and (s["l"] == 0) == separable]
                rng.shuffle(stratum)
                filled = [0] * bands
                for spec in stratum:
                    if min(filled) == per_band:
                        break
                    r = rank(spec)
                    band = int((r - lo) / width)
                    if lo <= r <= hi and filled[band] < per_band:
                        filled[band] += 1
                        chosen.append((spec, r))
    rng.shuffle(chosen)
    return chosen


def census_pairs(seed: int) -> list[tuple[int, int]]:
    pairs = list(CENSUS_PAIRS)
    random.Random(seed).shuffle(pairs)
    return pairs


def write_specs(specs: list[dict], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, spec in enumerate(specs):
        path = directory / f"spec{i:03d}.spec"
        path.write_text(spec_text(spec))
        paths.append(path)
    return paths


if __name__ == "__main__":
    # Print the verify workload's sampled spec list of a seed, one spec per line:
    #     python3 bench/inputs.py SEED
    import sys

    from checks import rank

    for spec, r in sample_specs(int(sys.argv[1]), rank):
        print(f"rank={r:2d}  " + "; ".join(spec_text(spec).strip().splitlines()))
