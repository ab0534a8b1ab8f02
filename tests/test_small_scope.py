"""Small-scope exhaustive check: every 3-vertex instance, not a sample,
a fixed seeded slice of the two 4-vertex spaces, every ladder of up to
8 rungs with its reversal, a seeded slice of ladder chains, and pattern K4
on every host of 4 or 5 vertices.

All 64 unit-weight digraphs on 3 vertices, each with every non-empty
request set: 4,032 instances.  `tests/small_scope.py` runs the same checks
over the 4-vertex spaces, the ladders of up to 12 rungs and the chains of
two ladders of up to 8 rungs in full, and the PSI check over two spaces of
6-vertex hosts."""

import random

from dsnkit.dsn import reverse_instance
from dsnkit.ladders import LadderSpec
from dsnkit.solvers import solve_bnb, solve_with_certificate

from conftest import (
    K4, chain_failure, chain_request_sets, ladder_chain, ladder_space, psi_space, psi_space_failure,
    small_scope_failure, small_scope_instances,
)
from small_scope import spaces

# 64 of the 4,096 arc masks of a 4-vertex host, drawn once from seed 0.
FOUR_VERTEX_HOSTS = sorted(random.Random(0).sample(range(1 << 12), 64))


def test_every_three_vertex_instance():
    count = 0
    for inst in small_scope_instances(3, range(1, 7)):
        failure = small_scope_failure(inst)
        assert failure is None, failure
        count += 1
    assert count == 4032


def test_seeded_slice_of_the_four_vertex_spaces():
    """Each sampled host with every set of 1 or 2 requests (78 per host)
    and, with weights 1 to 3, every out-star request set of 1 to 3 leaves
    (28 per host)."""
    counts = []
    for _, instances, engine in spaces(FOUR_VERTEX_HOSTS):
        counts.append(0)
        for inst in instances:
            failure = small_scope_failure(inst, engine)
            assert failure is None, failure
            counts[-1] += 1
    assert counts == [64 * 78, 64 * 28]


def test_every_ladder_up_to_eight_rungs_and_its_reversal():
    """Every G_{n,I} with n <= 8 (510 specs), where protrusion replacement
    acts, and the reversal of each; `small_scope_failure` also finds no
    segment between markers rejected."""
    count = 0
    for inst in ladder_space(8):
        failure = small_scope_failure(inst, solve_bnb)
        assert failure is None, failure
        count += 1
    assert count == 1020


def test_seeded_ladder_chains_and_their_reversals():
    """16 chains of 2 or 3 ladders of 6 to 14 rungs (`conftest.ladder_chain`),
    each interior rung identified with probability 0.15, drawn from seed 7,
    under both request sets (every t_{i-1} <-> t_i, and t_0 <-> t_k alone),
    and the reversal of each: the small-scope checks hold, no segment
    between markers is rejected, the reduced optimum reduces no further,
    and some chain takes two or more replacements, so the length-reduction
    loop runs past its first replacement."""
    rng = random.Random(7)
    replacements = []
    for _ in range(16):
        specs = []
        for _ in range(rng.choice((2, 3))):
            n = rng.randint(6, 14)
            specs.append(LadderSpec(n, {i for i in range(2, n) if rng.random() < 0.15}))
        for requests in chain_request_sets(len(specs)):
            chain = ladder_chain(specs, requests)
            for inst in (chain, reverse_instance(chain)):
                failure = chain_failure(inst)
                assert failure is None, failure
                replacements.append(solve_with_certificate(inst)[1].replacements)
    assert len(replacements) == 64 and max(replacements) >= 2


def test_pattern_k4_on_every_host_of_four_or_five_vertices():
    """Classes are contiguous blocks of every size vector, with every edge
    set between classes: 64 hosts on 4 vertices and 4 * 512 on 5."""
    count = 0
    for n in (4, 5):
        for psi in psi_space(K4, n):
            failure = psi_space_failure(psi)
            assert failure is None, failure
            count += 1
    assert count == 2112
