"""Property tests: the spec format round trip, the spanning set against
the closure oracle, and the dual scan against the GF(2) kernel, on drawn
inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from z2ucodes.codewords import (
    CodeSet,
    closure_of_spec,
    iter_valid_specs,
    parse_spec_text,
    spanning_set,
    spanning_span,
)
from z2ucodes.duality import dual_bruteforce

from referee import dual_scan

PAIRS = [(1, 1), (2, 3), (3, 3), (2, 6), (4, 2), (3, 5), (7, 3), (5, 4)]
SPECS = [spec for pair in PAIRS for spec in iter_valid_specs(*pair)]


@settings(deadline=None)
@given(st.sampled_from(SPECS))
def test_spec_serialization_round_trips(spec):
    assert parse_spec_text(spec.serialize()) == spec


@settings(deadline=None)
@given(st.sampled_from(SPECS))
def test_spanning_span_lies_in_the_closure(spec):
    # In case 3 the span may be a strict subset: a recorded finding.
    code = closure_of_spec(spec)
    span = spanning_span(spanning_set(spec), spec.alpha, spec.beta)
    assert all(code.contains_packed(v) for v in span.basis)
    if spec.case in (1, 2):
        assert span == code


@st.composite
def subgroups(draw):
    """A random GF(2) subgroup of Z2^alpha x R^beta words, n <= 12, beta >= 0."""
    beta = draw(st.integers(0, 6))
    alpha = draw(st.integers(0 if beta else 1, 12 - 2 * beta))
    n = alpha + 2 * beta
    vectors = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    return CodeSet.from_basis(alpha, beta, vectors)


@settings(deadline=None)
@given(subgroups())
def test_dual_scan_matches_kernel(code):
    assert dual_bruteforce(code) == dual_scan(code)
