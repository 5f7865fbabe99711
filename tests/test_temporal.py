import pytest

from momentloc.temporal import (
    ContextMoment,
    Moment,
    context_set,
    context_slot_count,
    enumerate_moments,
    iou,
    segment_iou,
)


def test_moment_validation():
    Moment(0, 0)
    Moment(2, 5)
    with pytest.raises(ValueError):
        Moment(-1, 2)
    with pytest.raises(ValueError):
        Moment(3, 2)


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
    assert context_slot_count("global") == 1
    assert context_slot_count("latent") == 1
    assert context_slot_count("before_after") == 2
    with pytest.raises(ValueError):
        context_slot_count("nope")


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
