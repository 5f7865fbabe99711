"""Moments, context regions, and endpoint features over segmented videos.

A video is a sequence of n equal-length segments indexed 0..n-1. A moment is a
contiguous inclusive span of segments; a context is one or two ordered,
non-overlapping regions (slots may be padded at video boundaries). Everything
here is plain interval arithmetic with no learned state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

CONTEXT_MODES = ("global", "before_after", "latent")

# Endpoint features of a padded context slot.
PAD_TEF = (-1.0, -1.0)


@dataclass(frozen=True, order=True)
class Moment:
    """Contiguous span of segments, both endpoints inclusive."""

    start_seg: int
    end_seg: int

    def __post_init__(self) -> None:
        if self.start_seg < 0 or self.end_seg < self.start_seg:
            raise ValueError(
                f"invalid moment ({self.start_seg}, {self.end_seg}): "
                "need 0 <= start_seg <= end_seg"
            )

    @property
    def n_segs(self) -> int:
        return self.end_seg - self.start_seg + 1

    def segments(self) -> range:
        return range(self.start_seg, self.end_seg + 1)


@dataclass(frozen=True)
class ContextMoment:
    """One or two ordered context regions; a None slot is boundary padding."""

    slots: tuple[Moment | None, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.slots) <= 2:
            raise ValueError(f"context needs 1 or 2 slots, got {len(self.slots)}")
        regions = self.regions
        for a, b in zip(regions, regions[1:]):
            if b.start_seg <= a.end_seg:
                raise ValueError(f"context regions must be ordered and disjoint: {a}, {b}")

    @property
    def regions(self) -> tuple[Moment, ...]:
        return tuple(m for m in self.slots if m is not None)

    def segment_set(self) -> frozenset[int]:
        return frozenset(s for m in self.regions for s in m.segments())

    @classmethod
    def single(cls, moment: Moment) -> "ContextMoment":
        return cls((moment,))

    @classmethod
    def pair(cls, before: Moment | None, after: Moment | None) -> "ContextMoment":
        return cls((before, after))


def validate_moment(moment: Moment, n_segments: int) -> None:
    if moment.end_seg >= n_segments:
        raise ValueError(f"moment {moment} exceeds video with {n_segments} segments")


def enumerate_moments(n_segments: int) -> list[Moment]:
    """All contiguous spans, ordered by (start_seg, end_seg). n*(n+1)/2 of them."""
    return list(moments_of(n_segments))


@functools.lru_cache(maxsize=None)
def moments_of(n_segments: int) -> tuple[Moment, ...]:
    """enumerate_moments(n_segments) as one tuple per n, built once."""
    if n_segments < 1:
        raise ValueError("need at least one segment")
    return tuple(Moment(s, e) for s in range(n_segments) for e in range(s, n_segments))


def moment_index(moment: Moment, n_segments: int) -> int:
    """Position of a moment in enumerate_moments(n_segments)."""
    validate_moment(moment, n_segments)
    s = moment.start_seg
    return s * n_segments - s * (s - 1) // 2 + moment.end_seg - s


@functools.lru_cache(maxsize=None)
def _single_contexts(n_segments: int) -> tuple[ContextMoment, ...]:
    """The single-region context of every moment, in moments_of order, built
    once per n and shared by every candidate list."""
    return tuple(ContextMoment.single(m) for m in moments_of(n_segments))


def context_set(context_mode: str, base: Moment, n_segments: int) -> list[ContextMoment]:
    """Candidate contexts scored for one base moment.

    global: the whole video, always.
    before_after: one candidate holding the span before the base and the span
        after it; either side degenerates to a padded slot at a video boundary.
    latent: every moment of the video, the base and the whole video included.
    """
    validate_moment(base, n_segments)
    if context_mode == "global":
        # moment (0, n - 1), the whole video, is row n - 1 of moments_of
        return [_single_contexts(n_segments)[n_segments - 1]]
    if context_mode == "before_after":
        before = Moment(0, base.start_seg - 1) if base.start_seg > 0 else None
        after = Moment(base.end_seg + 1, n_segments - 1) if base.end_seg < n_segments - 1 else None
        return [ContextMoment.pair(before, after)]
    if context_mode == "latent":
        return list(_single_contexts(n_segments))
    raise ValueError(f"unknown context mode {context_mode!r}")


def iou(a: Moment, b: Moment) -> float:
    """Intersection over union in whole segments; identical moments give 1.0."""
    inter = min(a.end_seg, b.end_seg) - max(a.start_seg, b.start_seg) + 1
    if inter <= 0:
        return 0.0
    union = a.n_segs + b.n_segs - inter
    return inter / union


def segment_iou(a: frozenset[int] | set[int], b: frozenset[int] | set[int]) -> float:
    """IoU between arbitrary segment sets (used for multi-region contexts)."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union
