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

from .pool import Claim, Process


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


# The compulsory serial order inside one round.
_ORDER = (Process.SENS, Process.COMM_DL, Process.COMP, Process.COMM_UL)


def validate_cstc(schedule: RoundSchedule, claims: list[Claim]) -> list[Violation]:
    """Check the compulsory serial timing constraints over a claim set.

    Per (client, round): every claim inside its scheduled window, and in
    absolute slots max(SENS) < min(DL), max(DL) < min(COMP),
    max(COMP) < min(UL) for each adjacent pair actually present.
    """
    length = schedule.cr_length
    by_owner: dict[tuple[int, int], list[Claim]] = {}
    for claim in claims:
        by_owner.setdefault((claim.client_id, claim.round_index), []).append(claim)

    violations = []
    for (client_id, rnd), owned in sorted(by_owner.items()):
        w = schedule.for_round(rnd)
        spans: dict[Process, tuple[int, int]] = {}
        for claim in owned:
            window = w.gen_slots if claim.process is Process.SENS else w.cons_slots
            frame = schedule.frame_of(claim)
            s0, s1 = claim.slot_range
            if s0 < window[0] or s1 > window[1]:
                violations.append(
                    Violation(rnd, client_id, "window", (claim.process.value,), (s0, s1))
                )
            abs0 = (frame - 1) * length + s0
            abs1 = (frame - 1) * length + s1 - 1  # last occupied slot
            lo, hi = spans.get(claim.process, (abs0, abs1))
            spans[claim.process] = (min(lo, abs0), max(hi, abs1))
        present = [p for p in _ORDER if p in spans]
        for earlier, later in zip(present, present[1:]):
            if spans[earlier][1] >= spans[later][0]:
                violations.append(
                    Violation(
                        rnd, client_id, "order",
                        (earlier.value, later.value),
                        (spans[earlier][1], spans[later][0]),
                    )
                )
    return violations


def slots_needed(duration_s: float, slot_duration: float) -> int:
    """Slots covering a duration, rounded up with float-noise slack."""
    if duration_s <= 0.0:
        return 0
    return int(math.ceil(duration_s / slot_duration - 1e-9))
