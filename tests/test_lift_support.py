"""The lift on each derivation's own support against the all-pairs lift of
tests/lift_reference.py, and the prefix table behind derivation_values."""

import pytest

import lift_reference as ref
from relext import extensions
from relext.extensions import lift_derivations
from relext.quiver import Path
from test_extensions import _split_pairs
from test_generator_rows import FAMILIES, FIELDS, _family, _subsets

cases = pytest.mark.parametrize(
    "name, field", [(n, f) for f in FIELDS for n in FAMILIES]
)


def _broken(e, alpha):
    """alpha with one entry changed, for the first graded pairs (g, k) and
    one pair off the vertex bigrade: each row of alpha gains 1 at x_k."""
    f = e.field
    graded = [(g, k) for g in range(e.dim) for k in range(e.dim)
              if (e.src[g], e.tgt[g]) == (e.src[k], e.tgt[k])]
    off = [(g, k) for g in range(e.dim) for k in range(e.dim)
           if (e.src[g], e.tgt[g]) != (e.src[k], e.tgt[k])]
    for g, k in graded[:6] + off[:1]:
        bad = {r: dict(v) for r, v in alpha.items()}
        bad[g] = f.sparse({**bad.get(g, {}), k: f.add(bad.get(g, {}).get(k, f.zero()), f.one())})
        if not bad[g]:
            del bad[g]
        yield bad


@cases
def test_lift_matches_the_all_pairs_reference(files, chain_text, monkeypatch, name, field):
    """On every split ((), S) and (S, all): the same alpha and verdict for
    the derivation and inner bases and every arrow unit vector, the sides
    equal to the reference's nonzero ones, and both checks give the same
    verdict on the solved alpha and on alphas with one entry changed, which
    fail on every ideal of dim 2 or more."""
    checked = []
    real = extensions._lift_holds

    def recording(e, checks):
        checked.extend(checks)
        return real(e, checks)

    monkeypatch.setattr(extensions, "_lift_holds", recording)
    f = FIELDS[field]
    broken = widest = 0
    for sp in _split_pairs(_family(name, files, chain_text, f)):
        e = sp.ext_over_base
        widest = max(widest, e.dim)
        space = extensions.regular_h1(sp.base)
        dvecs = list(space.derivations.rows + space.inner.rows)
        dvecs += [{u: f.one()} for u in range(space.layout.total)]
        del checked[:]
        got = lift_derivations(sp, dvecs)
        want, want_sides = ref.lift_with_sides(sp, dvecs)
        assert [w.alpha for w in got] == [w.alpha for w in want]
        assert [w.ok for w in got] == [w.ok for w in want]
        ok = [k for k, w in enumerate(got) if w.ok]
        assert [alpha for _, alpha in checked] == [got[k].alpha for k in ok]
        for (sides, alpha), k in zip(checked, ok):
            nonzero = {p: v for p, v in want_sides[k].items() if v[0] or v[1]}
            assert sides == nonzero
            if k >= space.derivations.dim:
                continue
            assert real(e, [(sides, alpha)]) and ref.lift_holds(e, [(want_sides[k], alpha)])
            for bad in _broken(e, alpha):
                verdict = ref.lift_holds(e, [(want_sides[k], bad)])
                assert real(e, [(sides, bad)]) == verdict
                assert real(e, [(want_sides[k], bad)]) == verdict
                broken += not verdict
    # on an ideal of dim 1 each change adds a multiple of the identity, an
    # endomorphism of the bimodule, and the alpha stays a lift
    assert broken or widest < 2


@cases
def test_prefix_table_matches_the_path_prefix(files, chain_text, name, field):
    """prefix_index reads, for every basis path of positive length of every
    partial extension, the index of the path without its last arrow that
    hashing that Path finds, and builds its table once per algebra."""
    fam = _family(name, files, chain_text, FIELDS[field])
    for combo in _subsets(fam):
        alg = fam.partial(combo)
        for g, p in enumerate(alg.basis):
            if not p.arrows:
                assert alg.prefix_index(g) is None
                continue
            if p.length == 1:
                want = alg.idem_index[p.source]
            else:
                want = alg.basis_index[Path(alg.quiver, None, p.arrows[:-1])]
            assert alg.prefix_index(g) == want
        table = alg._prefixes
        alg.prefix_index(0)
        assert alg._prefixes is table and len(table) == alg.dim
