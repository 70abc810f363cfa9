import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, strategies as st

from rgrams.embed import VectorSet
from rgrams.errors import DomainError, ParameterError, SuiteFileError
from rgrams.evaluate import (
    AnalogyQuery,
    analogy,
    analogy_suite,
    average_ranks,
    cosine,
    nearest_neighbors,
    read_analogies,
    read_similarity,
    similarity_suite,
    spearman,
)


def vecs(pairs):
    tokens = [t for t, _ in pairs]
    return VectorSet(tokens, np.array([v for _, v in pairs], dtype=np.float64))


class TestCosine:
    def test_parallel(self):
        assert cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(0.0)

    def test_forty_five_degrees(self):
        got = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_opposite(self):
        assert cosine(np.array([1.0, 1.0]), np.array([-1.0, -1.0])) == pytest.approx(-1.0)

    def test_clipped_to_unit_range(self):
        u = np.full(50, 1e-160)
        assert -1.0 <= cosine(u, u) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            cosine(np.zeros(3), np.ones(3))


class TestNearestNeighbors:
    VS = vecs(
        [
            ("north", [1.0, 0.0]),
            ("south", [-1.0, 0.0]),
            ("east", [0.0, 1.0]),
            ("northish", [0.9, 0.1]),
        ]
    )

    def test_basic_ranking(self):
        got = nearest_neighbors(self.VS, "north", k=3)
        assert [t for t, _ in got] == ["northish", "east", "south"]

    def test_query_excluded(self):
        got = nearest_neighbors(self.VS, "north", k=10)
        assert "north" not in [t for t, _ in got]

    def test_oov_returns_none(self):
        assert nearest_neighbors(self.VS, "west") is None

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError, match="k must be >= 0"):
            nearest_neighbors(self.VS, "north", k=-1)

    def test_tie_break_alphabetical(self):
        vs = vecs([("q", [1.0, 0.0]), ("bb", [0.0, 1.0]), ("aa", [0.0, 1.0])])
        got = nearest_neighbors(vs, "q", k=2)
        assert [t for t, _ in got] == ["aa", "bb"]

    def test_zero_query_rejected(self):
        vs = vecs([("z", [0.0, 0.0]), ("a", [1.0, 0.0])])
        with pytest.raises(DomainError):
            nearest_neighbors(vs, "z")

    def test_zero_candidates_rank_last(self):
        vs = vecs([("a", [1.0, 0.0]), ("z", [0.0, 0.0]), ("b", [0.5, 0.5])])
        got = nearest_neighbors(vs, "a", k=3)
        assert got[-1][0] == "z"

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        tokens = [f"tok{i:03d}" for i in range(60)]
        m = rng.normal(size=(60, 12))
        vs = VectorSet(tokens, m)
        for qi in (0, 13, 59):
            got = nearest_neighbors(vs, tokens[qi], k=7)
            want = sorted(
                (
                    (cosine(m[i], m[qi]), tokens[i])
                    for i in range(60)
                    if i != qi
                ),
                key=lambda p: (-p[0], p[1]),
            )[:7]
            assert [t for t, _ in got] == [t for _, t in want]
            for (t, s), (ws, wt) in zip(got, want):
                assert s == pytest.approx(ws, abs=1e-12)


class TestAnalogy:
    VS = vecs(
        [
            ("man", [1.0, 0.0, 0.0]),
            ("woman", [1.0, 1.0, 0.0]),
            ("king", [1.0, 0.0, 1.0]),
            ("queen", [1.0, 1.0, 1.0]),
            ("pawn", [-1.0, 0.0, 0.3]),
        ]
    )

    def test_parallelogram(self):
        got = analogy(self.VS, AnalogyQuery(a="man", b="woman", c="king", gold="queen"))
        assert got[0][0] == "queen"

    def test_negative_k_rejected(self):
        q = AnalogyQuery(a="man", b="woman", c="king", gold="queen")
        with pytest.raises(DomainError, match="k must be >= 0"):
            analogy(self.VS, q, k=-2)

    def test_query_terms_excluded(self):
        got = analogy(self.VS, AnalogyQuery(a="man", b="woman", c="king", gold="queen"), k=10)
        names = [t for t, _ in got]
        assert not {"man", "woman", "king"} & set(names)

    def test_oov_returns_none(self):
        assert analogy(self.VS, AnalogyQuery("man", "woman", "rook", "queen")) is None

    def test_zero_query_vector_rejected(self):
        vs = vecs([("a", [0.0, 0.0]), ("b", [1.0, 0.0]), ("c", [0.0, 1.0]), ("d", [1.0, 1.0])])
        with pytest.raises(DomainError):
            analogy(vs, AnalogyQuery("a", "b", "c", "d"))

    def test_near_cancelling_target_is_well_formed(self):
        # b - a + c cancels to rounding noise; the ranking must still be a
        # clean list with similarities inside [-1, 1]
        s = math.sqrt(3) / 2
        vs = vecs(
            [
                ("a", [0.5, s]),
                ("b", [1.0, 0.0]),
                ("c", [-0.5, s]),
                ("d", [0.0, 1.0]),
            ]
        )
        got = analogy(vs, AnalogyQuery(a="a", b="b", c="c", gold="d"))
        assert got is not None
        for tok, sim in got:
            assert -1.0 <= sim <= 1.0


@pytest.mark.parametrize("k", [2.5, True, -1])
def test_k_must_be_a_non_negative_integer(k):
    vs = TestAnalogy.VS
    with pytest.raises(ParameterError, match="k must be"):
        nearest_neighbors(vs, "man", k=k)
    with pytest.raises(ParameterError, match="k must be"):
        analogy(vs, AnalogyQuery(a="man", b="woman", c="king", gold="queen"), k=k)


class TestAnalogySuite:
    VS = TestAnalogy.VS

    def test_score_and_coverage(self):
        qs = [
            AnalogyQuery("man", "woman", "king", "queen"),  # correct
            AnalogyQuery("woman", "man", "queen", "king"),  # correct
            AnalogyQuery("man", "woman", "rook", "queen"),  # c OOV: skipped
            AnalogyQuery("man", "woman", "king", "bishop"),  # gold OOV: skipped
        ]
        r = analogy_suite(self.VS, qs)
        assert r.total == 4 and r.attempted == 2 and r.correct == 2
        assert r.score == pytest.approx(1.0)
        assert r.coverage == pytest.approx(0.5)

    def test_near_miss_recorded(self):
        vs = vecs(
            [
                ("a", [1.0, 0.0]),
                ("b", [0.0, 1.0]),
                ("c", [1.0, 1.0]),
                ("york", [0.4, 0.9]),
                ("new_york", [0.0, 1.1]),
            ]
        )
        q = AnalogyQuery(a="a", b="b", c="c", gold="york")
        r = analogy_suite(vs, [q])
        assert r.correct == 0
        assert r.near_misses and r.near_misses[0][0] == q
        assert r.near_misses[0][1] == "new_york"

    def test_nothing_attempted_scores_zero(self):
        r = analogy_suite(self.VS, [AnalogyQuery("x", "y", "z", "w")])
        assert r.score == 0.0 and r.coverage == 0.0

    def test_empty_suite_rejected(self):
        with pytest.raises(DomainError):
            analogy_suite(self.VS, [])


def reference_unit_rows(m):
    norms = np.linalg.norm(m, axis=1)
    ok = norms > 0
    return m / np.where(ok, norms, 1.0)[:, None], ok


def reference_rank(vs, target, banned, k):
    """The ranking as a plain sort of every row: cosine descending, then
    token string ascending; zero rows last."""
    unit, ok = reference_unit_rows(vs.matrix)
    sims = np.clip(unit @ target, -1.0, 1.0)
    sims[~ok] = -np.inf
    order = sorted(
        (i for i in range(len(vs.tokens)) if i not in banned),
        key=lambda i: (-sims[i], vs.tokens[i]),
    )
    return [(vs.tokens[i], float(sims[i])) for i in order[:k]]


@st.composite
def tie_heavy_sets(draw):
    """Small vector sets full of exact cosine ties: components from a tiny
    set (with -0.0), so rows repeat or vanish, and tokens that differ only
    by trailing NULs."""
    tokens = draw(
        st.lists(
            st.sampled_from(["a", "a\0", "a\0\0", "\0", "", "b", "ab", "a b", "é"]),
            min_size=4,
            max_size=9,
            unique=True,
        )
    )
    dim = draw(st.integers(1, 3))
    comps = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5])
    row = st.lists(comps, min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=len(tokens), max_size=len(tokens)))
    return VectorSet(tokens, np.array(rows, dtype=np.float64))


class TestRankingTies:
    @given(vs=tie_heavy_sets(), data=st.data())
    def test_neighbors_match_reference(self, vs, data):
        qi = data.draw(st.integers(0, len(vs) - 1))
        k = data.draw(st.sampled_from([0, 1, 2, len(vs) - 1, len(vs), len(vs) + 3]))
        q = vs.matrix[qi]
        if not np.linalg.norm(q):
            with pytest.raises(DomainError):
                nearest_neighbors(vs, vs.tokens[qi], k=k)
            return
        want = reference_rank(vs, q / np.linalg.norm(q), {qi}, k)
        assert nearest_neighbors(vs, vs.tokens[qi], k=k) == want

    @given(vs=tie_heavy_sets(), data=st.data())
    def test_analogy_matches_reference(self, vs, data):
        ia, ib, ic, ig = data.draw(st.permutations(range(len(vs))))[:4]
        k = data.draw(st.sampled_from([0, 1, 3, len(vs), len(vs) + 3]))
        q = AnalogyQuery(vs.tokens[ia], vs.tokens[ib], vs.tokens[ic], vs.tokens[ig])
        unit, ok = reference_unit_rows(vs.matrix)
        if not ok[[ia, ib, ic]].all():
            for call in (lambda: analogy(vs, q, k=k), lambda: analogy_suite(vs, [q])):
                with pytest.raises(DomainError):
                    call()
            return
        target = unit[ib] - unit[ia] + unit[ic]
        tn = np.linalg.norm(target)
        ranked = reference_rank(vs, target / tn, {ia, ib, ic}, len(vs)) if tn else []
        assert analogy(vs, q, k=k) == ranked[:k]
        top1 = [t for t, _ in ranked[:1]]
        assert analogy_suite(vs, [q]).correct == (top1 == [q.gold])

    def test_unit_rows_are_computed_once(self):
        vs = vecs([("a", [3.0, 4.0]), ("b", [0.0, 0.0])])
        unit, ok = vs.unit_rows()
        assert vs.unit_rows() is vs.unit_rows()
        assert unit.tolist() == [[0.6, 0.8], [0.0, 0.0]] and ok.tolist() == [True, False]

    @given(vs=tie_heavy_sets(), data=st.data())
    def test_queries_after_the_first_match_reference(self, vs, data):
        """A query builds the shared unit rows; later queries of every kind
        still rank as the reference does."""
        unit, ok = reference_unit_rows(vs.matrix)
        first, second = data.draw(st.permutations(range(len(vs))))[:2]
        assume(ok[first] and ok[second])
        nearest_neighbors(vs, vs.tokens[first], k=1)
        built = vs.unit_rows()
        q = vs.matrix[second]
        want = reference_rank(vs, q / np.linalg.norm(q), {second}, 3)
        assert nearest_neighbors(vs, vs.tokens[second], k=3) == want
        ia, ib, ic, ig = data.draw(st.permutations(range(len(vs))))[:4]
        query = AnalogyQuery(vs.tokens[ia], vs.tokens[ib], vs.tokens[ic], vs.tokens[ig])
        if ok[[ia, ib, ic]].all():
            target = unit[ib] - unit[ia] + unit[ic]
            tn = np.linalg.norm(target)
            ranked = reference_rank(vs, target / tn, {ia, ib, ic}, 3) if tn else []
            assert analogy(vs, query, k=3) == ranked
            top1 = [t for t, _ in ranked[:1]]
            assert analogy_suite(vs, [query]).correct == (top1 == [query.gold])
        assert vs.unit_rows() is built


class TestSpearman:
    def test_perfect_and_reversed(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_monotone_transform_invariance(self):
        x = [0.3, 1.7, 2.2, 5.0, 9.1]
        y = [2.0, 4.0, 4.5, 6.0, 8.0]
        assert spearman(x, y) == pytest.approx(spearman(x, [v**3 for v in y]), abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + 0.5 * x
            want = scipy.stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(want, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            want = scipy.stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(want, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(DomainError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_too_few_points_rejected(self):
        with pytest.raises(DomainError):
            spearman([1], [2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            spearman([1.0, bad, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError, match="non-finite"):
            spearman([1.0, 2.0, 3.0], [bad, bad, bad])

    def test_average_ranks(self):
        got = average_ranks(np.array([10.0, 20.0, 20.0, 30.0]))
        assert got.tolist() == [1.0, 2.5, 2.5, 4.0]


class TestSimilaritySuite:
    VS = vecs(
        [
            ("cat", [1.0, 0.0]),
            ("feline", [0.95, 0.05]),
            ("dog", [0.6, 0.4]),
            ("car", [0.0, 1.0]),
        ]
    )

    def test_correlation_and_coverage(self):
        pairs = [
            ("cat", "feline", 9.5),
            ("cat", "dog", 6.0),
            ("cat", "car", 1.0),
            ("cat", "ghost", 2.0),  # OOV: skipped
        ]
        rho, coverage = similarity_suite(self.VS, pairs)
        assert rho == pytest.approx(1.0)
        assert coverage == pytest.approx(3 / 4)

    def test_fewer_than_two_scored_rejected(self):
        with pytest.raises(DomainError):
            similarity_suite(self.VS, [("cat", "dog", 5.0), ("cat", "ghost", 1.0)])


class TestReaders:
    def test_analogies_with_sections(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text(
            ": capital-common\nathens greece oslo norway\n"
            ": family\nboy girl king queen\nnew_york york old_york york\n",
            encoding="utf-8",
        )
        qs = read_analogies(str(p))
        assert len(qs) == 3  # section headers are skipped
        assert qs[0] == AnalogyQuery("athens", "greece", "oslo", "norway")
        assert qs[2].a == "new york"  # escaped tokens are unescaped on read

    def test_analogies_malformed_line(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("one two three\n", encoding="utf-8")
        with pytest.raises(SuiteFileError, match="line 1: "):
            read_analogies(str(p))

    def test_similarity_tsv(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text("cat\tfeline\t9.5\nnew_york\tcity\t7.25\n", encoding="utf-8")
        rows = read_similarity(str(p))
        assert rows[0] == ("cat", "feline", 9.5)
        assert rows[1][0] == "new york"

    def test_similarity_bad_score(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text("a\tb\thigh\n", encoding="utf-8")
        with pytest.raises(SuiteFileError, match="line 1: "):
            read_similarity(str(p))

    @pytest.mark.parametrize("score", ["nan", "NaN", "inf", "-Infinity"])
    def test_similarity_non_finite_score(self, tmp_path, score):
        p = tmp_path / "s.tsv"
        p.write_text(f"a\tb\t1.5\nc\td\t{score}\n", encoding="utf-8")
        with pytest.raises(SuiteFileError, match="line 2: non-finite score") as info:
            read_similarity(str(p))
        assert info.value.line == 2

    def test_similarity_wrong_field_count(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(SuiteFileError, match="line 1: "):
            read_similarity(str(p))

    @pytest.mark.parametrize(
        "reader, body",
        [
            (read_analogies, ": family\nboy girl king queen\n\nnew_york york old_york york\n"),
            (read_similarity, "cat\tfeline\t9.5\n\nnew_york\tcity\t7.25\n"),
        ],
        ids=["analogy", "similarity"],
    )
    def test_crlf_parses_like_lf(self, tmp_path, reader, body):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(body.encode("utf-8"))
        crlf.write_bytes(body.replace("\n", "\r\n").encode("utf-8"))
        assert reader(str(crlf)) == reader(str(lf))

    def test_bare_cr_is_not_a_line_end(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_bytes(b"cat\tfeline\t9.5\rdog\tcanine\t8\r")
        with pytest.raises(SuiteFileError, match="line 1: expected 3 tab-separated fields"):
            read_similarity(str(p))
