"""Quivers and paths: composition, enumeration, acyclicity, ordering."""

import pytest
from hypothesis import given, settings, strategies as st

from build_reference import enumerate_paths
from relext.quiver import Arrow, Path, Quiver, compose, is_acyclic


@pytest.fixture
def a3():
    return Quiver(
        vertices=("1", "2", "3"),
        arrows=(Arrow("a", "1", "2"), Arrow("b", "2", "3")),
    )


def test_enumeration_counts_and_order(a3):
    paths = enumerate_paths(a3, 2)
    # stationary e_1,e_2,e_3 then a, b, then a.b
    assert [p.label() for p in paths] == ["e_1", "e_2", "e_3", "a", "b", "a.b"]
    assert [p.length for p in paths] == [0, 0, 0, 1, 1, 2]
    assert sorted(paths, key=Path.sort_key) == paths


def test_compose_rules(a3):
    a = Path.from_arrow_names(a3, ["a"])
    b = Path.from_arrow_names(a3, ["b"])
    ab = compose(a, b)
    assert ab is not None and ab.label() == "a.b"
    assert compose(b, a) is None
    e1 = Path.stationary(a3, "1")
    e2 = Path.stationary(a3, "2")
    assert compose(e1, a).label() == "a"
    assert compose(a, e2).label() == "a"
    assert compose(a, e1) is None
    # associativity where defined
    assert compose(compose(e1, a), b) == compose(e1, compose(a, b))


def test_source_target_length(a3):
    ab = Path.from_arrow_names(a3, ["a", "b"])
    assert ab.source == "1" and ab.target == "3" and ab.length == 2
    e2 = Path.stationary(a3, "2")
    assert e2.source == e2.target == "2" and e2.length == 0


def test_acyclicity(a3):
    assert is_acyclic(a3)
    cyc = Quiver(
        vertices=("1", "2"),
        arrows=(Arrow("f", "1", "2"), Arrow("g", "2", "1")),
    )
    assert not is_acyclic(cyc)
    loop = Quiver(vertices=("1",), arrows=(Arrow("l", "1", "1"),))
    assert not is_acyclic(loop)


def _has_cycle_by_dfs(q):
    """A vertex on the DFS stack reached again closes an oriented cycle."""
    state = {v: 0 for v in q.vertices}  # 0 unseen, 1 on the stack, 2 done

    def visit(v):
        state[v] = 1
        for a in q.arrows:
            if a.source == v:
                if state[a.target] == 1 or (state[a.target] == 0 and visit(a.target)):
                    return True
        state[v] = 2
        return False

    return any(state[v] == 0 and visit(v) for v in q.vertices)


@st.composite
def small_quivers(draw):
    n = draw(st.integers(1, 6))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    return Quiver(
        vertices=tuple(str(v) for v in range(n)),
        arrows=tuple(Arrow("a%d" % i, str(s), str(t)) for i, (s, t) in enumerate(ends)),
    )


@settings(max_examples=300, deadline=None)
@given(small_quivers())
def test_acyclicity_agrees_with_a_dfs_cycle_check(q):
    """Kahn's loop over the out-arrow index against a depth-first search
    over every arrow, on random quivers with loops and multiple arrows; the
    index lists each vertex's arrows in declaration order."""
    assert is_acyclic(q) == (not _has_cycle_by_dfs(q))
    for v in q.vertices:
        assert q.out_arrows[v] == tuple(i for i, a in enumerate(q.arrows) if a.source == v)


def test_bad_path_rejected(a3):
    with pytest.raises(ValueError):
        Path.from_arrow_names(a3, ["b", "a"])  # targets do not chain
    with pytest.raises(KeyError):
        a3.arrow("zzz")


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Quiver(vertices=("1", "1"), arrows=())
    with pytest.raises(ValueError):
        Quiver(
            vertices=("1", "2"),
            arrows=(Arrow("a", "1", "2"), Arrow("a", "2", "1")),
        )
    with pytest.raises(ValueError):
        Quiver(vertices=("1",), arrows=(Arrow("a", "1", "9"),))
