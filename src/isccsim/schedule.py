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
from functools import cached_property

import numpy as np

from .pool import PROCESS_ORDER, Claim, ClaimTable, Process

_SENS = PROCESS_ORDER.index(Process.SENS)


class Mode(Enum):
    SERIAL = "serial"
    ZEROS = "zeros"


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class RoundWindows:
    round_index: int
    gen_frame: int            # 1-based frame hosting the sensing phase
    gen_slots: tuple[int, int]
    cons_frame: int           # 1-based frame hosting dl/compute/ul
    cons_slots: tuple[int, int]


@dataclass(frozen=True)
class RoundSchedule:
    num_rounds: int
    cr_length: int  # slots per frame
    mode: Mode
    windows: tuple[RoundWindows, ...]

    @property
    def total_frames(self) -> int:
        last = self.windows[-1]
        return max(last.gen_frame, last.cons_frame)

    def for_round(self, round_index: int) -> RoundWindows:
        return self.windows[round_index - 1]

    def rounds_in_frame(self, frame: int) -> list[int]:
        """The rounds with a phase in `frame`, ascending."""
        return [w.round_index for w in self.windows if frame in (w.gen_frame, w.cons_frame)]

    def frame_of(self, claim: Claim) -> int:
        """The frame a claim belongs to, implied by its round and process."""
        w = self.for_round(claim.round_index)
        return w.gen_frame if claim.process is Process.SENS else w.cons_frame

    @cached_property
    def _phase_windows(self) -> np.ndarray:
        """(rounds, 2, 3): each round's (frame, first slot, end slot) per phase."""
        return np.array([((w.gen_frame, *w.gen_slots), (w.cons_frame, *w.cons_slots))
                         for w in self.windows])

    def claim_windows(self, claims: ClaimTable) -> np.ndarray:
        """(claims, 3): the (frame, first slot, end slot) of each claim's phase."""
        rnd = claims.round_index
        if len(rnd) and not 1 <= rnd.min() <= rnd.max() <= self.num_rounds:
            raise ScheduleError(f"claim rounds outside 1..{self.num_rounds}")
        return self._phase_windows[rnd - 1, (claims.process != _SENS).view(np.int8)]


def plan_pipeline(num_rounds: int, cr_length: int, mode: Mode) -> RoundSchedule:
    """Place each round's generation and consumption windows onto frames.

    Serial: gen of round r in frame 2r-1, cons in frame 2r. Overlapped:
    gen in frame r, cons in frame r+1, so interior frames host one cons
    and the next round's gen. Both phases span the full frame; they
    contend through pool capacity, not disjoint sub-windows.
    """
    if num_rounds < 1:
        raise ScheduleError("num_rounds must be >= 1")
    if cr_length < 2:
        raise ScheduleError("cr_length must be >= 2")
    full = (0, cr_length)
    windows = []
    for r in range(1, num_rounds + 1):
        if mode is Mode.SERIAL:
            windows.append(RoundWindows(r, 2 * r - 1, full, 2 * r, full))
        else:
            windows.append(RoundWindows(r, r, full, r + 1, full))
    return RoundSchedule(num_rounds, cr_length, mode, tuple(windows))


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

    Per (client, round): every claim inside its scheduled window, and in
    absolute slots max(SENS) < min(DL), max(DL) < min(COMP),
    max(COMP) < min(UL) for each adjacent pair actually present. Owners come
    in (client, round) order, each with its window violations in claim order
    before its order violations.
    """
    if not len(claims):
        return []
    process, s0, s1 = claims.process, claims.s0, claims.s1
    frame, w0, w1 = schedule.claim_windows(claims).T
    outside = (s0 < w0) | (s1 > w1)
    base = (frame - 1) * schedule.cr_length

    # Claims sorted by (client, round, process): each run of one key is one
    # process of one owner, spanning absolute slots [first, last].
    owner = claims.client_id * schedule.num_rounds + (claims.round_index - 1)
    key = owner * len(PROCESS_ORDER) + process
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    first = np.minimum.reduceat((base + s0)[order], start)
    last = np.maximum.reduceat((base + s1 - 1)[order], start)  # last occupied slot
    span_owner, span_process = np.divmod(key[start], len(PROCESS_ORDER))
    clash = (span_owner[1:] == span_owner[:-1]) & (last[:-1] >= first[1:])

    found = []  # ((owner, 0 window / 1 order, position), violation)
    for k in np.flatnonzero(outside).tolist():
        c, r = divmod(int(owner[k]), schedule.num_rounds)
        found.append(((c, r, 0, k), Violation(
            r + 1, c, "window", (PROCESS_ORDER[process[k]].value,), (int(s0[k]), int(s1[k])))))
    for j in np.flatnonzero(clash).tolist():
        c, r = divmod(int(span_owner[j]), schedule.num_rounds)
        earlier, later = (PROCESS_ORDER[p].value for p in span_process[j:j + 2])
        found.append(((c, r, 1, j), Violation(
            r + 1, c, "order", (earlier, later), (int(last[j]), int(first[j + 1])))))
    found.sort(key=lambda item: item[0])
    return [v for _, v in found]


def slots_needed(duration_s: float, slot_duration: float) -> int:
    """Slots covering a duration, rounded up with float-noise slack."""
    if duration_s <= 0.0:
        return 0
    return int(math.ceil(duration_s / slot_duration - 1e-9))
