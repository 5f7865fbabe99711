import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentloc.model import ModelConfig
from momentloc.temporal import (
    ContextMoment,
    Moment,
    context_set,
    enumerate_moments,
    iou,
    moments_of,
    segment_iou,
)

from helpers import moments_in


def test_moment_validation():
    Moment(0, 0)
    Moment(2, 5)
    with pytest.raises(ValueError):
        Moment(-1, 2)
    with pytest.raises(ValueError):
        Moment(3, 2)


def test_moments_of_is_one_tuple_per_length():
    for n in range(1, 9):
        assert moments_of(n) is moments_of(n)
        assert list(moments_of(n)) == enumerate_moments(n)
    # callers may change the list they get, never the shared tuple
    assert enumerate_moments(3) is not enumerate_moments(3)
    with pytest.raises(ValueError, match="at least one segment"):
        moments_of(0)


def test_enumerate_moments_counts_and_order():
    moments = enumerate_moments(3)
    assert moments == [
        Moment(0, 0), Moment(0, 1), Moment(0, 2),
        Moment(1, 1), Moment(1, 2),
        Moment(2, 2),
    ]
    for n in range(1, 13):
        ms = enumerate_moments(n)
        assert len(ms) == n * (n + 1) // 2
        assert len(set(ms)) == len(ms)
        assert ms == sorted(ms, key=lambda m: (m.start_seg, m.end_seg))


def test_context_moment_validation():
    ContextMoment.single(Moment(1, 2))
    ContextMoment.pair(Moment(0, 1), Moment(3, 4))
    ContextMoment.pair(None, None)
    with pytest.raises(ValueError):
        ContextMoment.pair(Moment(0, 2), Moment(2, 4))  # overlapping
    with pytest.raises(ValueError):
        ContextMoment.pair(Moment(3, 4), Moment(0, 1))  # out of order
    with pytest.raises(ValueError):
        ContextMoment(())


def test_context_set_global():
    assert context_set("global", Moment(1, 2), 6) == [
        ContextMoment.single(Moment(0, 5))
    ]


def test_context_set_before_after():
    (cm,) = context_set("before_after", Moment(2, 3), 6)
    assert cm.slots == (Moment(0, 1), Moment(4, 5))
    (cm,) = context_set("before_after", Moment(0, 2), 6)
    assert cm.slots == (None, Moment(3, 5))
    (cm,) = context_set("before_after", Moment(3, 5), 6)
    assert cm.slots == (Moment(0, 2), None)
    (cm,) = context_set("before_after", Moment(0, 5), 6)
    assert cm.slots == (None, None)


def test_context_set_latent_includes_base_and_whole_video():
    base = Moment(1, 2)
    cms = context_set("latent", base, 4)
    assert len(cms) == 10
    singles = [cm.slots[0] for cm in cms]
    assert base in singles
    assert Moment(0, 3) in singles
    assert singles == enumerate_moments(4)


def test_context_slot_count():
    assert ModelConfig(context_mode="global").context_slots == 1
    assert ModelConfig(context_mode="latent").context_slots == 1
    assert ModelConfig(context_mode="before_after").context_slots == 2
    with pytest.raises(ValueError):
        ModelConfig(context_mode="nope")


def test_iou_hand_cases():
    assert iou(Moment(0, 1), Moment(0, 1)) == 1.0
    assert iou(Moment(0, 0), Moment(1, 1)) == 0.0
    assert iou(Moment(0, 1), Moment(1, 2)) == 1 / 3
    assert iou(Moment(0, 3), Moment(2, 5)) == 2 / 6
    assert iou(Moment(0, 5), Moment(2, 3)) == 2 / 6
    assert iou(Moment(4, 4), Moment(0, 5)) == 1 / 6


def test_iou_symmetry_and_bounds(rng):
    for _ in range(200):
        n = int(rng.integers(2, 12))
        s1, s2 = rng.integers(0, n, size=2)
        e1 = int(rng.integers(s1, n))
        e2 = int(rng.integers(s2, n))
        a, b = Moment(int(s1), e1), Moment(int(s2), e2)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def test_segment_iou():
    assert segment_iou(frozenset({0, 1}), frozenset({0, 1})) == 1.0
    assert segment_iou(frozenset({0}), frozenset({1})) == 0.0
    assert segment_iou(frozenset({0, 1, 4}), frozenset({1, 4, 5})) == 2 / 4


# -- properties of the context algebra ------------------------------------------


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_context_set_sizes_and_padding_at_video_boundaries(n, data):
    base = data.draw(moments_in(0, n - 1))
    assert context_set("global", base, n) == [ContextMoment.single(Moment(0, n - 1))]
    latent = context_set("latent", base, n)
    assert len(latent) == n * (n + 1) // 2
    assert all(len(c.slots) == 1 for c in latent)
    assert ContextMoment.single(base) in latent
    (pair,) = context_set("before_after", base, n)
    before, after = pair.slots
    # a slot is padded exactly when the base touches that end of the video
    assert (before is None) == (base.start_seg == 0)
    assert (after is None) == (base.end_seg == n - 1)
    assert pair.segment_set() == frozenset(range(n)) - frozenset(base.segments())
    for mode in ("global", "before_after", "latent"):
        with pytest.raises(ValueError, match="exceeds"):
            context_set(mode, Moment(base.start_seg, n), n)
    with pytest.raises(ValueError, match="unknown context mode 'sideways'"):
        context_set("sideways", base, n)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_iou_symmetric_bounded_and_one_only_for_equal_moments(n, data):
    a, b = data.draw(moments_in(0, n - 1)), data.draw(moments_in(0, n - 1))
    assert iou(a, b) == iou(b, a)
    assert 0.0 <= iou(a, b) <= 1.0
    assert iou(a, a) == 1.0
    assert (iou(a, b) == 1.0) == (a == b)


@settings(max_examples=300, deadline=None)
@given(a=st.frozensets(st.integers(0, 9)), b=st.frozensets(st.integers(0, 9)))
def test_segment_iou_symmetric_bounded_and_one_only_for_equal_sets(a, b):
    assert segment_iou(a, b) == segment_iou(b, a)
    assert 0.0 <= segment_iou(a, b) <= 1.0
    assert segment_iou(a, a) == 1.0
    assert (segment_iou(a, b) == 1.0) == (a == b)
