"""Run metrics: success tables, line coverage, completion curves, effort
saving, and proof similarity."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import ProofStep, Theory
from .revision import edit_distance

LENGTH_BUCKETS = ((1, 1, "1"), (2, 2, "2"), (3, 5, "3-5"), (6, 10, "6-10"), (11, None, ">10"))

_TOKEN_RE = re.compile(r"[A-Za-z0-9_']+")


@dataclass(frozen=True)
class RunRecord:
    theorem: str
    split: str
    ground_truth_length: int
    proved: bool
    generated_proof: tuple[str, ...] | None = None
    session: str = ""

    def __post_init__(self):
        if self.proved and self.generated_proof is None:
            raise ValueError("a proved record must carry its proof")


@dataclass(frozen=True)
class SuccessRow:
    group: str
    proved: int
    total: int
    rate: float  # percent rounded to 0.1


def length_bucket(length: int) -> str:
    for low, high, label in LENGTH_BUCKETS:
        if length >= low and (high is None or length <= high):
            return label
    return "?"


# each grouping of the success tables: its table's name and a record's group
GROUPINGS: dict[str, tuple[str, Callable[[RunRecord], str]]] = {
    "split": ("success_by_split", lambda r: r.split),
    "length_bucket": ("success_by_length", lambda r: length_bucket(r.ground_truth_length)),
    "session": ("success_by_session", lambda r: r.session),
}


def success_rate(records: Iterable[RunRecord], group_by: str = "split") -> list[SuccessRow]:
    """Proved/total per group, rate as a percent rounded to 0.1.

    ``group_by`` is a key of ``GROUPINGS``."""
    if group_by not in GROUPINGS:
        raise ValueError(f"unknown grouping {group_by!r}")
    keyed = GROUPINGS[group_by][1]
    proved: dict[str, int] = {}
    total: dict[str, int] = {}
    for record in records:
        key = keyed(record)
        total[key] = total.get(key, 0) + 1
        proved[key] = proved.get(key, 0) + (1 if record.proved else 0)
    return [SuccessRow(name, proved[name], n, round(100.0 * proved[name] / n, 1))
            for name, n in sorted(total.items())]


def coverage_lines(records: Iterable[RunRecord]) -> tuple[int, float]:
    """Ground-truth lines belonging to proved theorems, and their share of
    all ground-truth lines (percent)."""
    records = list(records)
    covered = sum(r.ground_truth_length for r in records if r.proved)
    denominator = sum(r.ground_truth_length for r in records)
    percent = 100.0 * covered / denominator if denominator else 0.0
    return covered, percent


@dataclass(frozen=True)
class CompletionCurve:
    points: tuple[tuple[float, float], ...]  # (sigma, completion rate)

    def __post_init__(self):
        sigmas = [s for s, _ in self.points]
        if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
            raise ValueError("sigma values must be strictly ascending")
        for s, p in self.points:
            if not (0 <= s <= 1 and 0 <= p <= 1):
                raise ValueError("curve points must lie in [0, 1]")


def check_fractions(fractions: list[float]) -> list[float]:
    """Completion fractions: at least one, strictly ascending, in [0, 1]."""
    if not fractions:
        raise ValueError("fractions must name at least one fraction")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ValueError("fractions must be strictly ascending")
    if not all(0 <= s <= 1 for s in fractions):
        raise ValueError("fractions must lie in [0, 1]")
    return fractions


ProveWithPrefix = Callable[[Theory, str, tuple[ProofStep, ...]], bool]


def completion_experiment(corpus: list[Theory], fractions: list[float],
                          prove: ProveWithPrefix) -> tuple[CompletionCurve, list[tuple[str, str]]]:
    """For each fraction, replay the first ceil(sigma * L) ground-truth steps
    of every proof-bearing theorem and search for the rest; the curve maps
    sigma to the completed share. ``prove`` runs the engine from a prefix.
    Returns the curve and the skipped (theorem, reason) list."""
    from .search import ReplayError

    check_fractions(fractions)
    tasks = [(theory, entry) for theory in corpus
             for entry in theory.provable_entries() if entry.proof]
    skipped: list[tuple[str, str]] = []
    points = []
    for sigma in fractions:
        completed = 0
        usable = 0
        for theory, entry in tasks:
            prefix_len = math.ceil(sigma * len(entry.proof))
            prefix = entry.proof[:prefix_len]
            try:
                proved = prove(theory, entry.name, prefix)
            except ReplayError as e:
                skipped.append((f"{theory.name}.{entry.name}", str(e)))
                continue
            usable += 1
            completed += 1 if proved else 0
        points.append((sigma, completed / usable if usable else 0.0))
    return CompletionCurve(tuple(points)), skipped


def aes(curve: CompletionCurve) -> tuple[float, float]:
    """Average effort saving, both readings of the curve summary.

    ``literal`` weights each completion-rate increment by the expert-written
    fraction itself: p1*s1 + sum (pi - p(i-1)) * si. ``saved`` weights it by
    the complementary machine-completed share, 1 - si. Both are reported
    because the two readings answer different questions about the same curve.
    """
    if not curve.points:
        raise ValueError("empty curve")
    (s1, p1) = curve.points[0]
    literal = p1 * s1
    saved = p1 * (1 - s1)
    prev_p = p1
    for s, p in curve.points[1:]:
        literal += (p - prev_p) * s
        saved += (p - prev_p) * (1 - s)
        prev_p = p
    return literal, saved


def sequence_similarity(a: str, b: str) -> float:
    """1 - levenshtein(a, b) / max(|a|, |b|); 1.0 when both are empty."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - edit_distance(a, b) / longest


def jaccard_similarity(a: str, b: str) -> float:
    """Token-set overlap over union, tokenising on whitespace and
    punctuation; 1.0 when both are empty."""
    ta = set(_TOKEN_RE.findall(a))
    tb = set(_TOKEN_RE.findall(b))
    if not ta and not tb:
        return 1.0
    union = ta | tb
    return len(ta & tb) / len(union)


def proof_text(steps: Iterable[str]) -> str:
    return "\n".join(steps)
