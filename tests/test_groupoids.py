"""The lazy GroupoidQuantale against the validated table of the same
groupoid, quantale.groupoid_quantale, and its right regular
representation against the relation quantale on its arrows."""

import itertools
import random

import pytest

import gen
from quantales.groupoids import GroupoidQuantale
from quantales.quantale import groupoid_quantale
from quantales.relations import RelationQuantale

@pytest.fixture(scope="module", params=list(gen.GROUPOIDS))
def both(request):
    G = gen.GROUPOIDS[request.param]()
    return GroupoidQuantale(G), groupoid_quantale(G)


def test_the_constants_are_the_tables(both):
    q, table = both
    assert (q.n, q.bottom, q.unit, q.top) == \
        (table.n, table.bottom, table.unit, table.top)
    assert q.has_support and table.has_support
    assert q.support_irreducibles == table.support_irreducibles
    assert q.support_elements() == table.support_elements()


def test_every_operation_is_the_tables(both):
    q, table = both
    elems = range(q.n)
    for a in elems:
        assert q.inv(a) == table.inv(a)
        assert q.support(a) == table.support(a)
        for converse in (False, True):
            assert q.diamond_table(a, converse) == \
                table.diamond_table(a, converse), (a, converse)
    for op in ("mul", "join", "meet", "leq"):
        ours, theirs = getattr(q, op), getattr(table, op)
        assert [ours(a, b) for a in elems for b in elems] == \
            [theirs(a, b) for a in elems for b in elems], op
    rng = random.Random(q.n)
    for _ in range(50):
        xs = rng.sample(elems, min(q.n, 4))
        assert q.join_all(xs) == table.join_all(xs)


def test_the_locale_view_is_the_tables(both):
    q, table = both
    for v in q.support_elements():
        assert q.locale_mask(v) == table.locale_mask(v)
    for mask in range(1 << len(q.support_irreducibles)):
        assert q.locale_element(mask) == table.locale_element(mask)


def test_the_regular_representation_is_a_faithful_homomorphism(both):
    q, _ = both
    r = RelationQuantale(range(q.m))
    phi = [q.regular(a) for a in range(q.n)]
    assert len(set(phi)) == q.n                        # injective
    assert phi[q.unit] == r.unit and phi[q.bottom] == 0
    for a in range(q.n):
        assert phi[q.inv(a)] == r.inv(phi[a])
        assert phi[q.support(a)] == r.support(phi[a])
    for a, b in itertools.product(range(q.n), repeat=2):
        assert phi[q.mul(a, b)] == r.mul(phi[a], phi[b]), (a, b)
        assert q.leq(a, b) == r.leq(phi[a], phi[b]), (a, b)
        assert phi[a | b] == phi[a] | phi[b]


def test_the_locale_follows_arrow_order_not_object_order():
    # seed 3's identity at object 0 is arrow 3 and at object 1 arrow 1, so
    # bit 0 of a locale mask stands for object 1
    G = gen.random_groupoid(random.Random(3))
    assert G.identities == (3, 1)
    q = GroupoidQuantale(G)
    assert q.support_irreducibles == (1 << 1, 1 << 3)
    assert q.locale_mask(1 << 1) == 1 and q.locale_element(2) == 1 << 3
