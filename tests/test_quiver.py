"""Quivers and paths: composition, enumeration, acyclicity, ordering."""

import pytest

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
