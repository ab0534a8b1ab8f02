"""Small-scope exhaustive check: every 3-vertex instance, not a sample.

All 64 unit-weight digraphs on 3 vertices, each with every non-empty
request set: 4,032 instances.  `tests/small_scope.py` runs the same checks
over the 4-vertex spaces."""

from conftest import small_scope_failure, small_scope_instances


def test_every_three_vertex_instance():
    count = 0
    for inst in small_scope_instances(3, range(1, 7)):
        failure = small_scope_failure(inst)
        assert failure is None, failure
        count += 1
    assert count == 4032
