"""The tagged covering's stage bookkeeping, a reference for the tests.

No pipeline step reads it: build_tagged_covering takes each stage's rank
range from tagging._stage_spans.
"""


def pending_after_stage(r: int, s: int, j: int) -> int:
    """Rank-(s+1) parts still uncovered once stage j is done."""
    return r * (r**s - 1) - j * (r - 1)
