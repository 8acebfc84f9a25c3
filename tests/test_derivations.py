"""Derivations by the Leibniz rule on basis indices against the normal-form
evaluation of derivation_reference: the values of every derivation, inner
derivation and unit arrow vector, and the derivation space, on the
regular bimodules and arrow ideals of the ex1/ex2 blocks, the regular
bimodule of every partial extension of ex1, ex2 and chain k <= 3, and C and
Ctilde of squares k <= 3, over Q and over F7."""

from itertools import combinations

import pytest

import derivation_reference as ref
from families import squares
from relext import bimod, extensions, hochschild, qdsl
from relext.exactla import PrimeField, QQ
from relext.quiver import Path

FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])


def _corpus(files, chain_text, corpus_pairs_by_field, field):
    """(tag, algebra, bimodule) over the given field."""
    out = list(corpus_pairs_by_field[field.name])
    for name, pf in [(n, files[n]) for n in sorted(files)] + [
        ("chain%d" % k, qdsl.parse(chain_text(k))) for k in (1, 2, 3)
    ]:
        fam = extensions.Family(pf.block("C"), pf.block("Ctilde"), field)
        for r in range(len(fam.new_arrows) + 1):
            for combo in combinations(fam.new_arrows, r):
                try:
                    alg = fam.partial(combo)
                except extensions.SplitError:
                    continue
                out.append(("%s:B_%s" % (name, ",".join(combo)), alg,
                            bimod.regular_bimodule(alg)))
    for k in (1, 2, 3):
        pf = qdsl.parse(squares(k))
        fam = extensions.Family(pf.block("C"), pf.block("Ctilde"), field)
        for alg in (fam.base, fam.full):
            out.append(("squares%d:%s" % (k, alg.block.name), alg,
                        bimod.regular_bimodule(alg)))
    return out


@FIELDS
def test_derivations_match_normal_form_reference(
    files, chain_text, corpus_pairs_by_field, field
):
    corpus = _corpus(files, chain_text, corpus_pairs_by_field, field)
    vectors = 0
    for tag, alg, m in corpus:
        der = hochschild.derivation_space(alg, m)
        assert der == ref.derivation_space(alg, m), tag
        total = hochschild.arrow_layout(alg, m).total
        units = [{t: field.one()} for t in range(total)]
        for vec in der.rows + ref.inner_space(alg, m).rows + tuple(units):
            assert hochschild.derivation_values(alg, m, vec) == ref.derivation_values(
                alg, m, vec
            ), tag
            vectors += 1
    # ex1/ex2 pairs, 4 partials of each fixture, 2 + 4 + 8 of chain k <= 3,
    # and 2 algebras per squares size
    assert len(corpus) == 16 + 8 + 14 + 6
    assert vectors > 500


@FIELDS
def test_every_basis_path_extends_an_earlier_one(
    files, chain_text, corpus_pairs_by_field, field
):
    """A basis path of positive length is q.a for its last arrow a and a
    basis path q listed before it."""
    seen = set()
    for _, alg, _ in _corpus(files, chain_text, corpus_pairs_by_field, field):
        if id(alg) in seen:
            continue
        seen.add(id(alg))
        for i, p in enumerate(alg.basis):
            if not p.arrows:
                continue
            head = Path(alg.quiver, p.source if p.length == 1 else None, p.arrows[:-1])
            assert alg.basis_index.get(head, i) < i, (alg, p.label())
    assert len(seen) > 20
