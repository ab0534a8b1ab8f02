"""Small-scope exhaustive checks over every 4-vertex instance, every
ladder of up to 12 rungs, every chain of two ladders of up to 8 rungs and
two spaces of PSI instances on 6-vertex hosts.

Six spaces, each checked in full:

- every unit-weight digraph on 4 vertices with every set of 1 or 2
  requests (319,488 instances): `solve_bnb` and `solve_exhaustive` agree on
  feasibility and cost, and each feasible instance gets a certificate with
  no verdict set and its bounds holding, an exact solution treewidth that
  equals the subset-DP reference (run after rescanning safe reductions),
  and, on each path it analyzes, the important and marked sets of the
  references and the segments of a detection that reuses no accepted
  ladder verdict;
- every digraph on 4 vertices with weights 1 to 3 and every out-star
  request set of 1 to 3 leaves (114,688 instances): `solve_dst` agrees
  with `solve_bnb`, and the certificates are checked the same way;
- every ladder G_{n,I} with n <= 12 and every identified set I, wired by
  `conftest.ladder_with_terminals`, and the reversal of each (16,380
  instances): the certificates are checked the same way, and no segment
  between markers is rejected;
- every ordered pair of ladders with n <= 8 and at most one identified
  rung, joined by `conftest.ladder_chain` under both request sets (every
  t_{i-1} <-> t_i, and t_0 <-> t_k alone), and the reversal of each (7,744
  instances): the certificates are checked the same way, and the reduced
  optimum reduces no further;
- pattern K4 on every 6-vertex host, with the classes as contiguous blocks
  of every size vector and every edge set between classes (65,536
  instances), and pattern K3,3 on every 6-vertex host with singleton
  classes (32,768 instances): `decide_psi_via_dsn` on the hardness
  instance agrees with `solve_psi_bruteforce`, and the optimum found
  without the threshold stop is never below the threshold and, when it
  meets it, carries a class-respecting embedding.

No segment between markers is rejected in these spaces, so the segment
comparison checks the reuse of accepted ladder verdicts only; that a
rejection is not reused is pinned by `tests/test_structure.py`'s
`test_the_reverse_path_reads_only_an_accepted_verdict`.

pytest does not collect this file; run it with

    PYTHONPATH=src python tests/small_scope.py

It prints each space's counts and exits 1 at the first failure, which it
prints as `.dsn` or `.psi` text."""

import sys
import time
from functools import partial

from dsnkit.solvers import solve_bnb, solve_dst, solve_exhaustive

from conftest import (
    K4, K33, chain_failure, ladder_chain_space, ladder_space, psi_space, psi_space_failure, small_scope_failure,
    small_scope_instances,
)

def spaces(masks=None):
    """(name, instances, the engine checked against solve_bnb) per space;
    `masks` picks the hosts, all of them by default."""
    return [
        ("4 vertices, 1-2 requests", small_scope_instances(4, (1, 2), masks=masks), solve_exhaustive),
        (
            "4 vertices, weights 1-3, out-stars of 1-3 leaves",
            small_scope_instances(4, (1, 2, 3), weights=(1, 2, 3), out_stars=True, masks=masks),
            solve_dst,
        ),
    ]


def main() -> int:
    checks = [
        (name, instances, partial(small_scope_failure, engine=engine))
        for name, instances, engine in [
            *spaces(), ("ladders of 1-12 rungs and their reversals", ladder_space(12), solve_bnb),
        ]
    ]
    checks += [
        ("chains of two ladders of 1-8 rungs and their reversals", ladder_chain_space(8), chain_failure),
        ("pattern K4 on 6-vertex hosts", psi_space(K4, 6), psi_space_failure),
        ("pattern K3,3 on 6-vertex hosts, singleton classes", psi_space(K33, 6), psi_space_failure),
    ]
    for name, instances, check in checks:
        start = time.perf_counter()
        count = 0
        for inst in instances:
            failure = check(inst)
            if failure is not None:
                print(f"{name}: {failure}", end="")
                return 1
            count += 1
        print(f"{name}: {count} instances ok in {time.perf_counter() - start:.0f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
