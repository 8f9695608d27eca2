#!/usr/bin/env python3
"""Build the 27-square tagged covering of the Sierpinski triangle and audit it.

The stage-1 build starts from the 6 rank-2 parts that are not first
children and retires 2 of them per stage, so the schedule closes after
t = 3 stages with q = 3^3 = 27 squares.  Squares 3, 9 and 27 end their
stages, so their sides coincide exactly with the part diameters c^(1+j).
"""

from orderedcover import zoo
from orderedcover.geometry import lex_unrank
from orderedcover.separation import verify_coverage, verify_form, verify_separation
from orderedcover.tagging import BuilderParams, build_tagged_covering


def main() -> None:
    ifs = zoo.sierpinski_gasket()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, s=1, bigN=1, D=8.0))

    print(f"system: {ifs.name}, s = {cov.s}, tau = {cov.tau:.6f}, "
          f"D = {cov.D}, q = {cov.q}")
    print()
    # The arrays hold tags and sides in k order; the record's stage spans
    # [stage, m, first, count] give the covered part of each square: the
    # words of ranks first .. first + count - 1 at resolution m.
    print("  k  part         side        tag")
    words = [
        lex_unrank(rank, m, cov.r)
        for _, m, first, count in cov.to_record()["stages"]
        for rank in range(first, first + count)
    ]
    for k, ((x, y), side, word) in enumerate(zip(cov.tags, cov.sides, words), start=1):
        idx = ",".join(str(i) for i in word)
        marker = "  <- stage end" if k in (3, 9, 27) else ""
        print(f"{k:>3}  ({idx:<7})  {side:.8f}  ({x:+.6f}, {y:+.6f}){marker}")

    print()
    for j, k in enumerate((3, 9, 27), start=1):
        expect = cov.c ** (cov.s + j) * cov.rho
        got = cov.sides[k - 1]
        print(f"stage {j} ends at k = {k}: side {got:.12f}, "
              f"part diameter {expect:.12f}, diff {abs(got - expect):.2e}")

    form = verify_form(cov)
    sep = verify_separation(cov)
    coverage = verify_coverage(ifs, cov)
    print()
    print(f"side schedule exact:   {form.passed} (max rel err {form.max_rel_err:.2e})")
    print(f"attractor covered:     {coverage.passed} (maps keep the triangle: "
          f"by construction, complete prefix code: {coverage.prefix_code}, "
          f"worst fill {coverage.worst_fill:.6f})")
    print(f"separation (D = {cov.D}): {sep.passed}, "
          f"{sep.pairs_checked} pairs, worst ratio {sep.worst_ratio:.6f} "
          f"at pair {sep.worst_pair}")


if __name__ == "__main__":
    main()
