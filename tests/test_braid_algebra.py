"""Braid words, Seifert forms, and signature-based invariants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidflow import braid_algebra
from braidflow.braid_algebra import (
    BraidWord,
    QmOnBraids,
    UncalibratedRatioError,
    calibrate_ratio,
    defect_estimate,
    evaluate_word,
    evaluate_words,
    free_reduce,
    full_twist,
    homogenized_signature,
    is_pure,
    permutation,
    qm_for_strands,
    random_word,
    s_value,
    seifert_matrix,
    signature,
    signature_of_form,
    signatures,
    writhe,
)
from oracles import (dense_signature, float_signature, s_ratio,
                     seifert_matrix_by_column, torus_link_signature)


def torus_word(p, q):
    return BraidWord(tuple(range(1, p)) * q, p)


def words(n_strands=st.integers(2, 5), max_len=25):
    return n_strands.flatmap(
        lambda n: st.lists(
            st.integers(-(n - 1), n - 1).filter(bool),
            min_size=0, max_size=max_len,
        ).map(lambda ls: BraidWord(tuple(ls), n)))


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (2, 6), (3, 3), (3, 4),
                                 (3, 5), (4, 3), (4, 4), (5, 4), (2, 7)])
def test_signature_matches_torus_counting_oracle(p, q):
    expected = torus_link_signature(p, q)
    assert expected == int(expected)
    assert signature(torus_word(p, q)) == int(expected)


def test_sigma1_powers():
    for k in range(2, 9):
        assert signature(BraidWord((1,) * k, 2)) == -(k - 1)
        assert signature(BraidWord((-1,) * k, 2)) == k - 1


def test_unknot_and_empty():
    assert signature(BraidWord(tuple(), 2)) == 0
    assert signature(BraidWord((1,), 2)) == 0
    # split closure: Hopf link plus two unknots keeps the Hopf signature
    assert signature(BraidWord((1, 1), 4)) == -1


@given(words())
@settings(max_examples=150, deadline=None)
def test_mirror_antisymmetry(word):
    assert signature(word.mirror()) == -signature(word)


@given(words(max_len=16), st.integers(-3, 3).filter(bool))
@settings(max_examples=80, deadline=None)
def test_conjugation_invariance(word, g):
    if abs(g) >= word.n_strands:
        g = 1 if g > 0 else -1
    conj = BraidWord((g,), word.n_strands) * word * BraidWord((-g,), word.n_strands)
    assert signature(conj) == signature(word)


@given(words(max_len=14))
@settings(max_examples=60, deadline=None)
def test_stabilization_invariance(word):
    # adding a strand braided in by one crossing keeps the closure link
    wider = BraidWord(word.letters + (word.n_strands,), word.n_strands + 1)
    assert signature(wider) == signature(word)


def test_exact_signature_matches_float_oracle():
    rng = np.random.default_rng(99)
    for _ in range(500):
        n = int(rng.integers(2, 6))
        length = int(rng.integers(0, 31))
        word = random_word(rng, n, length)
        v = seifert_matrix(word)
        assert signature(word) == float_signature(v + v.T)


def test_seifert_matrix_size():
    word = BraidWord((1, 1, 2, -1, 2, 2), 3)
    reduced = free_reduce(word)
    used_columns = len(set(abs(l) for l in reduced.letters))
    assert seifert_matrix(word).shape[0] == len(reduced.letters) - used_columns


def test_signature_of_form_object_fallback():
    # object-dtype input with entries and pivots beyond int64, reduced in
    # Python integers like any other form
    big = 1 << 70
    m = np.array([[big, 0], [0, -big]], dtype=object)
    assert signature_of_form(m) == 0
    m2 = np.array([[big, 1], [1, big]], dtype=object)
    assert signature_of_form(m2) == 2
    m3 = np.array([[0, big, 0], [big, 0, 1], [0, 1, -big]], dtype=object)
    assert signature_of_form(m3) == dense_signature(m3) == -1


@st.composite
def symmetric_forms(draw, max_size=10):
    """Symmetric integer matrices (object dtype) of four kinds: dense, zero
    diagonal, singular B^T D B, and band forms in a shuffled order; times 1
    or a factor beyond 2^62."""
    m = draw(st.integers(0, max_size))
    kind = draw(st.sampled_from(["dense", "zero-diagonal", "radical", "band"]))
    entries = st.integers(-3, 3)
    if kind == "radical":
        r = draw(st.integers(0, m))
        B = np.array(draw(st.lists(entries, min_size=r * m, max_size=r * m)),
                     dtype=object).reshape(r, m)
        d = draw(st.lists(st.sampled_from([-(1 << 63) - 5, -2, -1, 1, 3,
                                           (1 << 62) + 1]),
                          min_size=r, max_size=r))
        D = np.zeros((r, r), dtype=object)
        for i, v in enumerate(d):
            D[i, i] = v
        S = B.T.dot(D).dot(B) if r else np.zeros((m, m), dtype=object)
    else:
        A = np.array(draw(st.lists(entries, min_size=m * m, max_size=m * m)),
                     dtype=object).reshape(m, m)
        S = A + A.T
        if kind == "zero-diagonal":
            for i in range(m):
                S[i, i] = 0
        elif kind == "band":
            width = draw(st.integers(1, 3))
            for i in range(m):
                for j in range(m):
                    if abs(i - j) > width:
                        S[i, j] = 0
            perm = draw(st.permutations(range(m)))
            S = S[np.ix_(perm, perm)]
    return S * draw(st.sampled_from([1, (1 << 62) + 3]))


@given(symmetric_forms())
@settings(max_examples=400, deadline=None)
def test_signature_of_form_matches_dense_and_float_oracles(sym):
    assert (sym == sym.T).all()
    sig = signature_of_form(sym)
    assert sig == dense_signature(sym)
    if np.max(np.abs(sym), initial=0) < 1 << 31:
        # float_signature symmetrizes its argument; 2 S has the signature of S
        assert sig == float_signature(sym.astype(np.int64))


def words_with_cancellations(n_strands=st.integers(2, 6), max_len=30):
    """Words with inverse pairs g, -g inserted, so free reduction has work."""
    def build(n):
        letters = st.integers(-(n - 1), n - 1).filter(bool)
        return st.tuples(
            st.lists(letters, max_size=max_len),
            st.lists(st.tuples(st.integers(0, max_len), letters), max_size=4),
        ).map(lambda drawn: _insert_pairs(n, *drawn))
    return n_strands.flatmap(build)


def _insert_pairs(n, letters, pairs):
    letters = list(letters)
    for pos, g in pairs:
        pos = min(pos, len(letters))
        letters[pos:pos] = [g, -g]
    return BraidWord(tuple(letters), n)


@given(words_with_cancellations())
@settings(max_examples=300, deadline=None)
def test_seifert_matrix_is_the_column_order_matrix_in_band_order(word):
    by_column = seifert_matrix_by_column(word)
    columns: dict[int, list[int]] = {}
    for pos, l in enumerate(free_reduce(word).letters):
        columns.setdefault(abs(l), []).append(pos)
    first_bands = [a for c in sorted(columns) for a in columns[c][:-1]]
    order = np.argsort(first_bands)
    band_order = seifert_matrix(word)
    assert band_order.dtype == np.int64
    assert np.array_equal(band_order, by_column[np.ix_(order, order)])
    assert signature_of_form(band_order + band_order.T) \
        == dense_signature(by_column + by_column.T)


def test_calibrated_ratios_are_exact(monkeypatch):
    monkeypatch.setattr(braid_algebra, "_RATIO_CACHE", {})
    for n in range(2, 9):
        assert calibrate_ratio(n) == s_ratio(n)
    assert calibrate_ratio(2) == Fraction(-1)
    assert calibrate_ratio(3) == Fraction(-2, 3)
    assert calibrate_ratio(4) == Fraction(-2, 3)
    assert calibrate_ratio(5) == Fraction(-3, 5)


def test_full_twist_properties():
    for n in (2, 3, 4):
        delta = full_twist(n)
        assert writhe(delta) == n * (n - 1)
        assert permutation(delta) == tuple(range(n))
        assert is_pure(delta)


def test_homogenized_signature_of_generator_power():
    # signature(s1^(2k))/k = -2 + 1/k, so depth k leaves a 1/k gap
    hom = homogenized_signature(BraidWord((1, 1), 2), depth=6)
    assert hom.value == pytest.approx(-2.0 + 1.0 / 6.0)
    assert abs(hom.value + 2.0) <= 1.0 / 6.0 + 1e-12
    ks = [k for k, _ in hom.sequence]
    assert ks == sorted(ks)


def test_s_value_vanishes_on_full_twists():
    for n in (2, 3, 4, 5):
        qm = qm_for_strands(n, "s-combination")
        assert abs(s_value(full_twist(n), qm)) <= 1.0 / qm.depth + 1e-12


def test_s_combination_slope_on_twist_powers():
    # writhe-corrected invariant gains nothing per extra full twist
    qm = qm_for_strands(3, "s-combination")
    vals = evaluate_words([full_twist(3).power(k) for k in (1, 2, 3, 4)], qm)
    gaps = {b - a for a, b in zip(vals, vals[1:])}
    assert gaps == {0.0}


def test_defect_of_generator_powers_is_one():
    for a in (2, 3, 5):
        for b in (2, 4):
            va = signature(BraidWord((1,) * a, 2))
            vb = signature(BraidWord((1,) * b, 2))
            vab = signature(BraidWord((1,) * (a + b), 2))
            assert abs(vab - va - vb) == 1


def test_defect_estimate_is_bounded():
    def sampler(rng, n_strands):  # uniform length up to 18 letters
        return random_word(rng, n_strands, int(rng.integers(1, 19)))

    est = defect_estimate(3, sampler, trials=150, seed=4)
    assert est <= 8.0


@given(words())
def test_text_round_trip(word):
    assert BraidWord.from_text(word.to_text(), word.n_strands) == word


def test_free_reduction():
    assert free_reduce(BraidWord((1, -1, 2, -2), 3)).letters == tuple()
    assert free_reduce(BraidWord((1, 2, -2, 1), 3)).letters == (1, 1)
    assert BraidWord((1, 2, -2, -1), 3).reduced().letters == tuple()


@given(words(max_len=12))
def test_inverse_cancels(word):
    assert (word * word.inverse()).reduced().letters == tuple()


def test_letter_validation():
    with pytest.raises(ValueError):
        BraidWord((3,), 3)
    with pytest.raises(ValueError):
        BraidWord((0,), 2)


def test_permutation_and_purity():
    swap = BraidWord((1,), 2)
    assert permutation(swap) == (1, 0)
    assert not is_pure(swap)
    assert is_pure(BraidWord((1, 1), 2))


def test_strand_mismatch_raises():
    qm = qm_for_strands(3, "s-combination")
    with pytest.raises(UncalibratedRatioError):
        evaluate_word(BraidWord((1,), 4), qm)


def test_evaluate_word_switch():
    word = BraidWord((1, 1, 2, 2), 3)
    qm_raw = qm_for_strands(3, "raw-signature")
    assert evaluate_word(word, qm_raw) == float(signature(word))
    qm_s = qm_for_strands(3, "s-combination")
    expected = signature(word) - qm_s.ratio * writhe(word)
    assert evaluate_word(word, qm_s) == pytest.approx(float(expected))


def test_random_word_respects_bounds():
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = random_word(rng, 4, 15)
        assert w.n_strands == 4
        assert len(w.letters) == 15
        assert all(1 <= abs(l) <= 3 for l in w.letters)


def reference_signature(word):
    """The built route: band-order Seifert form, banded Bareiss."""
    V = seifert_matrix(word)
    return signature_of_form(V + V.T)


@st.composite
def stream_words(draw, max_len=30):
    """Words on 2..6 strands for the signature stream: some leave a column
    empty (a split closure), and inserted pairs g, -g and mixed signs give
    zero pivots, repairs and radical loops."""
    n = draw(st.integers(2, 6))
    columns = list(range(1, n))
    if n > 2 and draw(st.booleans()):
        columns.remove(draw(st.sampled_from(columns)))
    letters = st.builds(lambda c, s: c * s, st.sampled_from(columns),
                        st.sampled_from([-1, 1]))
    word = draw(st.lists(letters, max_size=max_len))
    for pos, g in draw(st.lists(st.tuples(st.integers(0, max_len), letters),
                                max_size=4)):
        pos = min(pos, len(word))
        word[pos:pos] = [g, -g]
    return BraidWord(tuple(word), n)


@given(stream_words())
@settings(max_examples=400, deadline=None)
def test_streamed_signature_matches_the_built_form(word):
    V = seifert_matrix(word)
    sig = signatures([word])[0]
    assert sig == signature_of_form(V + V.T) == dense_signature(V + V.T)
    # V has entries in {-1, 0, 1} and at most a few dozen rows
    assert sig == float_signature(V)


@pytest.mark.parametrize("letters, n", [
    ((-1, 1), 2),            # a zero pivot deferred to the end: a radical
    ((1, -1, 1), 2),         # a zero pivot repaired with a deferred loop,
                             # which the elimination then frees
    ((1, 2, -2, 1), 3),      # a radical between cancelling bands
    ((-2, -1, 2, 1, -2), 3),  # signature 1; deferring, not repairing, reads 0
])
def test_streamed_signature_on_zero_pivots_and_radicals(letters, n):
    word = BraidWord(letters, n)
    assert signature(word) == reference_signature(word)


def test_streamed_full_twist_powers_match_torus_counting():
    for n in range(2, 7):
        powers = [full_twist(n).power(k) for k in range(1, 5)]
        assert signatures(powers) == [torus_link_signature(n, n * k)
                                      for k in range(1, 5)]


@st.composite
def word_families(draw):
    """A word and words that leave it at cuts 0..len, with tails that may be
    empty, repeats, prefixes of each other, and unrelated words."""
    base = draw(stream_words())
    n = base.n_strands
    letter = st.integers(-(n - 1), n - 1).filter(bool)
    cut = st.integers(0, len(base))
    tails = st.lists(letter, max_size=12).map(tuple)
    family = [base,
              BraidWord(draw(tails), n),  # leaves at 0
              BraidWord(base.letters + draw(tails), n)]  # leaves at the end
    for c, tail in draw(st.lists(st.tuples(cut, tails), max_size=5)):
        family.append(BraidWord(base.letters[:c] + tail, n))
    family += draw(st.lists(st.sampled_from(family), max_size=2))  # repeats
    return draw(st.permutations(family))


@given(word_families())
@settings(max_examples=250, deadline=None)
def test_signatures_of_words_sharing_prefixes(family):
    assert signatures(family) == [reference_signature(w) for w in family]


def test_signatures_edge_cases():
    word = BraidWord((1, 2, 2, 1, -2, 1, 1), 3)
    prefixes = [BraidWord(word.letters[:k], 3) for k in range(len(word) + 1)]
    assert signatures(prefixes) == [reference_signature(w) for w in prefixes]
    assert signatures([word, word]) == [signature(word)] * 2
    assert signatures([]) == []
    assert signatures([BraidWord((), 1)]) == [0]
    # no common prefix at all
    other = BraidWord((-2, -1, -1, -2), 3)
    assert signatures([word, other]) == [reference_signature(word),
                                         reference_signature(other)]


@pytest.mark.parametrize("qm", [
    qm_for_strands(4, "raw-signature"),
    qm_for_strands(4, "s-combination"),
    QmOnBraids("s-combination", Fraction(-2, 3), 4, 3, homogenize=True),
])
def test_evaluate_words_is_evaluate_word_of_each(qm):
    rng = np.random.default_rng(8)
    base = random_word(rng, 4, 30).letters
    ws = [BraidWord(base[:k] + random_word(rng, 4, 5).letters, 4)
          for k in (0, 7, 18, 30)] + [BraidWord(base, 4), BraidWord((), 4)]
    values = evaluate_words(ws, qm)
    assert values == [evaluate_word(w, qm) for w in ws]
    if not qm.homogenize:
        ratio = qm.ratio or 0
        assert values == [float(Fraction(reference_signature(w))
                                - ratio * writhe(w)) for w in ws]


@given(stream_words(max_len=12), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_homogenized_signature_reads_each_power(word, depth):
    hom = homogenized_signature(word, depth)
    assert hom.sequence == tuple(
        (k, reference_signature(word.power(k)) / k) for k in range(1, depth + 1))
