"""The tagged covering's stage and fineness bookkeeping, a reference for the tests.

No pipeline step reads it: build_tagged_covering takes each stage's rank
range from tagging._stage_spans, and a covering's record carries those spans.
"""

from dataclasses import dataclass

from orderedcover.geometry import Record, check_level_budget, lex_unrank


def pending_after_stage(r: int, s: int, j: int) -> int:
    """Rank-(s+1) parts still uncovered once stage j is done."""
    return r * (r**s - 1) - j * (r - 1)


@dataclass(frozen=True)
class FinenessGroup(Record):
    """Contiguous k-span of squares covering one rank-`rank` subdivision part."""

    rank: int
    fineness: int
    ordinal: int
    k_from: int
    k_to: int

    @property
    def span(self) -> int:
        return self.k_to - self.k_from + 1


def fineness_schedule(r: int, s: int) -> tuple[list[FinenessGroup], int, int]:
    """Group bookkeeping for (r, s): returns (groups, t, q).

    Stage j contributes, for each of its (r-1) rank-(s+1) parts, one group of
    fineness r^(j-1) plus sub-groups at each deeper rank down to fineness 1.
    Ordinals count groups within each (rank, fineness) class. The group count
    scales with q, so the part budget is enforced before anything is built,
    and before t = r + r^2 + ... + r^s is formed.
    """
    check_level_budget(r, s)
    t = sum(r**j for j in range(1, s + 1))
    check_level_budget(r, t)
    q = r**t
    groups: list[FinenessGroup] = [FinenessGroup(s, 1, 1, 1, 1)]
    ordinals: dict[tuple[int, int], int] = {}
    k = 2
    for j in range(1, t + 1):
        for _ in range(r - 1):
            for sub in range(1, j + 1):  # rank s+sub, fineness r^(j-sub)
                fineness = r ** (j - sub)
                rank = s + sub
                n_blocks = r ** (sub - 1)
                for b in range(n_blocks):
                    key = (rank, fineness)
                    ordinals[key] = ordinals.get(key, 0) + 1
                    k_from = k + b * fineness
                    groups.append(
                        FinenessGroup(rank, fineness, ordinals[key], k_from, k_from + fineness - 1)
                    )
            k += r ** (j - 1)
    assert k == q + 1
    return groups, t, q


def squares_of(record: dict) -> list[dict]:
    """The per-square rows of a covering record's columns, as the
    ordered-cover/1 record wrote them: k, tag, side, rank (the resolution m),
    stage and covered_index, the word of the covered part."""
    rows = []
    for stage, m, first, count in record["stages"]:
        for rank in range(first, first + count):
            k = len(rows)
            rows.append(
                {
                    "k": k + 1,
                    "tag": record["tags"][k],
                    "side": record["sides"][k],
                    "rank": m,
                    "stage": stage,
                    "covered_index": lex_unrank(rank, m, record["r"]),
                }
            )
    return rows
