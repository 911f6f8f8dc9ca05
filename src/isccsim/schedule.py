"""Round-to-frame pipeline planning and serial-timing validation.

A learning round has a generation phase (sensing) and a consumption phase
(download, train, upload). Serial mode gives each phase its own frame; the
overlapped Z mode lets round r generate while round r-1 consumes in the
same frame, so R rounds need R+1 frames instead of 2R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .pool import PROCESS_ORDER, ClaimTable, Process

_SENS = PROCESS_ORDER.index(Process.SENS)


class Mode(Enum):
    SERIAL = "serial"
    ZEROS = "zeros"


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class RoundSchedule:
    """Where each round's phases fall, in closed form.

    Round r generates in frame ``stride * (r - 1) + 1`` and consumes in the
    frame after: stride 2 in serial mode, so every phase has a frame of its
    own, and 1 in overlapped mode, so interior frames host one round's
    consumption and the next round's generation. Both phases span the full
    frame; they contend through pool capacity, not disjoint sub-windows.
    """

    num_rounds: int
    cr_length: int  # slots per frame
    mode: Mode

    def __post_init__(self) -> None:
        if self.num_rounds < 1:
            raise ScheduleError("num_rounds must be >= 1")
        if self.cr_length < 2:
            raise ScheduleError("cr_length must be >= 2")

    @property
    def stride(self) -> int:
        return 2 if self.mode is Mode.SERIAL else 1

    def gen_frame(self, round_index: int) -> int:
        """The 1-based frame hosting a round's sensing phase."""
        return self.stride * (round_index - 1) + 1

    def cons_frame(self, round_index: int) -> int:
        """The frame hosting a round's download, compute and upload."""
        return self.gen_frame(round_index) + 1

    @property
    def total_frames(self) -> int:
        return self.cons_frame(self.num_rounds)

    def claim_frames(self, claims: ClaimTable) -> np.ndarray:
        """(claims,): each claim's frame, its round's generation frame for
        sensing and consumption frame otherwise."""
        rnd = claims.round_index
        if len(rnd) and not 1 <= rnd.min() <= rnd.max() <= self.num_rounds:
            raise ScheduleError(f"claim rounds outside 1..{self.num_rounds}")
        return self.stride * (rnd - 1) + 1 + (claims.process != _SENS)


def plan_pipeline(num_rounds: int, cr_length: int, mode: Mode) -> RoundSchedule:
    """The schedule of `num_rounds` rounds on frames of `cr_length` slots:
    R rounds take 2R frames in serial mode and R + 1 overlapped."""
    return RoundSchedule(num_rounds, cr_length, mode)


def makespan(schedule: RoundSchedule) -> int:
    """Total schedule length in slots."""
    return schedule.total_frames * schedule.cr_length


@dataclass(frozen=True)
class Violation:
    round_index: int
    client_id: int
    kind: str  # "window" or "order"
    processes: tuple[str, ...]
    slots: tuple[int, ...]


def validate_cstc(schedule: RoundSchedule, claims: ClaimTable) -> list[Violation]:
    """Check the compulsory serial timing constraints over a claim table.

    Per (client, round): every claim inside its frame's slots, and in
    absolute slots max(SENS) < min(DL), max(DL) < min(COMP),
    max(COMP) < min(UL) for each adjacent pair actually present. Owners come
    in (client, round) order, each with its window violations in claim order
    before its order violations.
    """
    if not len(claims):
        return []
    process, s0, s1 = claims.process, claims.s0, claims.s1
    frame = schedule.claim_frames(claims)
    outside = (s0 < 0) | (s1 > schedule.cr_length)
    base = (frame - 1) * schedule.cr_length

    # Claims sorted by (client, round, process): each run of one key is one
    # process of one owner, spanning absolute slots [first, last].
    owner = claims.client_id * schedule.num_rounds + (claims.round_index - 1)
    key = owner * len(PROCESS_ORDER) + process
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.empty(len(key), dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    start = new.nonzero()[0]
    first = np.minimum.reduceat((base + s0)[order], start)
    last = np.maximum.reduceat((base + s1 - 1)[order], start)  # last occupied slot
    span_key = key[start]
    span_owner = span_key // len(PROCESS_ORDER)
    clash = (span_owner[1:] == span_owner[:-1]) & (last[:-1] >= first[1:])

    found = []  # ((owner, 0 window / 1 order, position), violation)
    for k in outside.nonzero()[0].tolist():
        c, r = divmod(int(owner[k]), schedule.num_rounds)
        found.append(((c, r, 0, k), Violation(
            r + 1, c, "window", (PROCESS_ORDER[process[k]].value,), (int(s0[k]), int(s1[k])))))
    for j in clash.nonzero()[0].tolist():
        c, r = divmod(int(span_owner[j]), schedule.num_rounds)
        earlier, later = (PROCESS_ORDER[p].value for p in span_key[j:j + 2] % len(PROCESS_ORDER))
        found.append(((c, r, 1, j), Violation(
            r + 1, c, "order", (earlier, later), (int(last[j]), int(first[j + 1])))))
    found.sort(key=lambda item: item[0])
    return [v for _, v in found]


def slots_needed(duration_s: float, slot_duration: float) -> int:
    """Slots covering a duration, rounded up with float-noise slack."""
    if duration_s <= 0.0:
        return 0
    return int(math.ceil(duration_s / slot_duration - 1e-9))
