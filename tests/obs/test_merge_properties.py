"""Hypothesis battery for Telemetry.merge: the algebra the rollups rely
on.  Merging is how per-cell registries become per-(backend, engine-mode,
workload) groups and the fleet grand total, so it must behave like a
commutative monoid over registries — otherwise the rollup would depend
on cell completion order, which the pool does not guarantee.
"""

from hypothesis import given, settings, strategies as st

from repro.obs.export import parse_openmetrics, to_openmetrics
from repro.obs.telemetry import Histogram, Telemetry

#: Small shared vocabulary so generated registries overlap (merges that
#: never collide on a name test nothing).
NAMES = ("btb1.hits", "btb1.misses", "gpq.occupancy", "sk.flips")

#: One shared bucket layout per histogram name — merge requires it.
BOUNDS = (1.0, 5.0, 25.0)

counts = st.integers(min_value=0, max_value=1_000)
#: Integer-valued floats: gauge/histogram sums then add exactly, so the
#: monoid laws hold as equalities rather than up-to-float-rounding.
gauge_values = st.integers(min_value=-10**6, max_value=10**6).map(float)
observations = st.lists(
    st.integers(min_value=0, max_value=100).map(float),
    max_size=8,
)


@st.composite
def registries(draw):
    telemetry = Telemetry()
    for name in draw(st.sets(st.sampled_from(NAMES), max_size=4)):
        kind = draw(st.sampled_from(("counter", "gauge", "histogram")))
        if kind == "counter":
            telemetry.inc(name, draw(counts))
        elif kind == "gauge":
            telemetry.gauge(name).set(draw(gauge_values))
        else:
            histogram = telemetry.histogram(name, bounds=BOUNDS)
            for value in draw(observations):
                histogram.observe(value)
    return telemetry


def canonical(telemetry: Telemetry) -> dict:
    return telemetry.to_dict()


def merged(*registries_):
    out = Telemetry()
    for registry in registries_:
        out.merge(registry)
    return out


@settings(max_examples=60, deadline=None)
@given(registries(), registries())
def test_merge_is_commutative(a, b):
    # Guard: a and b only both carry a name with the *same* instrument
    # kind if the strategies happened to agree; mismatched kinds raise,
    # which is outside the algebra.  Rebuild from dicts to keep a/b
    # unmutated by the merge itself.
    try:
        ab = canonical(merged(Telemetry.from_dict(canonical(a)), b))
        ba = canonical(merged(Telemetry.from_dict(canonical(b)), a))
    except (KeyError, ValueError, AttributeError):
        return  # kind collision: merge is defined only over like kinds
    assert ab == ba


@settings(max_examples=60, deadline=None)
@given(registries(), registries(), registries())
def test_merge_is_associative(a, b, c):
    try:
        left = canonical(
            merged(merged(Telemetry.from_dict(canonical(a)), b), c)
        )
        right_inner = merged(Telemetry.from_dict(canonical(b)), c)
        right = canonical(merged(Telemetry.from_dict(canonical(a)),
                                 right_inner))
    except (KeyError, ValueError, AttributeError):
        return
    assert left == right


@settings(max_examples=60, deadline=None)
@given(registries())
def test_empty_registry_is_identity(a):
    before = canonical(a)
    assert canonical(merged(Telemetry.from_dict(before),
                            Telemetry())) == before
    assert canonical(merged(Telemetry(),
                            Telemetry.from_dict(before))) == before


@settings(max_examples=60, deadline=None)
@given(registries())
def test_merge_leaves_its_argument_unchanged(a):
    # The second merge folds into instruments the first one made, so an
    # instrument shared with *a* would change *a*.
    before = canonical(a)
    Telemetry().merge(a).merge(a)
    assert canonical(a) == before


@settings(max_examples=60, deadline=None)
@given(registries())
def test_merge_accepts_payload_dicts(a):
    via_dict = canonical(merged(Telemetry(), canonical(a)))
    via_object = canonical(merged(Telemetry(), a))
    assert via_dict == via_object


@settings(max_examples=40, deadline=None)
@given(registries())
def test_openmetrics_round_trip_is_stable(a):
    """render(parse(render(x))) == render(x) for arbitrary registries —
    the exporter's determinism property, over generated content rather
    than the hand-built fixtures in test_export."""
    text = to_openmetrics(a)
    assert to_openmetrics(parse_openmetrics(text)) == text


def test_histogram_merge_requires_identical_bounds():
    import pytest

    left = Histogram("x", (1.0, 2.0))
    right = Histogram("x", (1.0, 3.0))
    with pytest.raises(ValueError):
        left.merge(right)
