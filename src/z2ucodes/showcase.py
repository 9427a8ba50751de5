"""Three documented small codes with claimed optimal binary images.

Each entry records the claimed [n, k, d] and every documented reading of
its generators; :func:`build_report` measures all readings against the
enumeration oracle and produces the golden comparison report.  A claim
that no reading reproduces is flagged, not silently accepted.
"""

from __future__ import annotations

from .gf2poly import parse_poly
from .codewords import CodeSet, CodeSpec, ambient_word, closure_of_spec, enumerate_closure
from .gray import gray_image, min_distance


class Interpretation:
    """One documented reading of a code's generators: a spec, or packed
    generator words with their (alpha, beta)."""

    __slots__ = ("label", "spec", "generators")

    def __init__(
        self,
        label: str,
        spec: "CodeSpec | None",
        generators: "tuple[tuple[int, ...], int, int] | None",
    ):
        self.label = label
        self.spec = spec
        self.generators = generators

    def build(self) -> CodeSet:
        if self.spec is not None:
            return closure_of_spec(self.spec)
        words, alpha, beta = self.generators
        return enumerate_closure(words, alpha, beta)


class ShowcaseCode:
    """A documented code: its lengths, claimed [n, k, d] and readings."""

    __slots__ = ("name", "alpha", "beta", "claimed", "interpretations")

    def __init__(
        self,
        name: str,
        alpha: int,
        beta: int,
        claimed: tuple[int, int, int],
        interpretations: tuple[Interpretation, ...],
    ):
        self.name = name
        self.alpha = alpha
        self.beta = beta
        self.claimed = claimed
        self.interpretations = interpretations


def _generator(a: str, p: str, q: str, alpha: int, beta: int) -> tuple[tuple[int, ...], int, int]:
    word = ambient_word(parse_poly(a), (parse_poly(p), parse_poly(q)), alpha, beta)
    return (word,), alpha, beta


SHOWCASE_CODES: tuple[ShowcaseCode, ...] = (
    ShowcaseCode(
        name="length-8",
        alpha=2,
        beta=3,
        claimed=(8, 6, 2),
        interpretations=(
            Interpretation(
                "case-1 spec a=1+x^2, l=1+x, g=1+x",
                CodeSpec(2, 3, 1, parse_poly("1+x^2"), parse_poly("1+x"), parse_poly("1+x")),
                None,
            ),
            Interpretation(
                "single generator (1+x, 1+x)",
                None,
                _generator("1+x", "1+x", "0", 2, 3),
            ),
        ),
    ),
    ShowcaseCode(
        name="length-21",
        alpha=7,
        beta=7,
        claimed=(21, 6, 8),
        interpretations=(
            Interpretation(
                "case-2 spec a=x^7-1, l=1+x+x^2+x^4, g=1+x",
                CodeSpec(
                    7, 7, 2, parse_poly("1+x^7"), parse_poly("1+x+x^2+x^4"), parse_poly("1+x")
                ),
                None,
            ),
            Interpretation(
                "single generator (1+x+x^2+x^4, u*(1+x))",
                None,
                _generator("1+x+x^2+x^4", "0", "1+x", 7, 7),
            ),
        ),
    ),
    ShowcaseCode(
        name="length-14",
        alpha=2,
        beta=6,
        claimed=(14, 7, 4),
        interpretations=(
            Interpretation(
                "single generator (1+x, 1+x+x^3+x^5)",
                None,
                _generator("1+x", "1+x+x^3+x^5", "0", 2, 6),
            ),
        ),
    ),
)


def measure(interp: Interpretation) -> tuple[int, int, int]:
    """Measured [n, k, d] of the binary image of one reading."""
    code = interp.build()
    img = gray_image(code, "block")
    return (img.n, img.rank, min_distance(code))


def build_report() -> str:
    """The golden comparison report for the three documented codes."""
    lines = []
    for entry in SHOWCASE_CODES:
        n, k, d = entry.claimed
        lines.append(
            f"code {entry.name}: alpha={entry.alpha} beta={entry.beta} "
            f"claimed [{n},{k},{d}]"
        )
        reproduced = False
        for interp in entry.interpretations:
            mn, mk, md = measure(interp)
            ok = (mn, mk, md) == entry.claimed
            reproduced = reproduced or ok
            verdict = "MATCH" if ok else "MISMATCH"
            lines.append(
                f"  interpretation {interp.label}: measured [{mn},{mk},{md}] -> {verdict}"
            )
        lines.append(
            f"  result: {'REPRODUCED' if reproduced else 'DISCREPANCY FLAGGED'}"
        )
    return "\n".join(lines) + "\n"
