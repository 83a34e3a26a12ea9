"""Tests for the offline text embedders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textembed import HashingEmbedder, char_ngrams, word_tokens


class TestTokenizer:
    def test_word_tokens_lowercase(self):
        assert word_tokens("Set_Max_Delay applies TO paths") == [
            "set_max_delay",
            "applies",
            "paths",
        ]

    def test_stopwords_removed(self):
        assert "the" not in word_tokens("the retiming command")

    def test_stopwords_kept_when_asked(self):
        assert "the" in word_tokens("the retiming command", drop_stopwords=False)

    def test_char_ngrams_boundaries(self):
        grams = char_ngrams("ab", n_min=3, n_max=3)
        assert grams == ["<ab", "ab>"]

    def test_char_ngrams_cover_token(self):
        grams = char_ngrams("retime")
        assert "<re" in grams
        assert "me>" in grams


class TestHashingEmbedder:
    def test_deterministic(self):
        e = HashingEmbedder(dim=64)
        np.testing.assert_allclose(e.embed("compile ultra"), e.embed("compile ultra"))

    def test_normalized(self):
        e = HashingEmbedder(dim=64)
        assert np.linalg.norm(e.embed("retiming improves slack")) == pytest.approx(1.0)

    def test_empty_text_is_zero(self):
        e = HashingEmbedder(dim=64)
        assert np.linalg.norm(e.embed("")) == 0.0

    def test_similar_texts_closer_than_dissimilar(self):
        e = HashingEmbedder(dim=256)
        a = e.embed("retiming moves registers across combinational logic")
        b = e.embed("the retiming command relocates registers in logic")
        c = e.embed("wireload models estimate interconnect capacitance")
        assert a @ b > a @ c

    def test_subwords_connect_morphology(self):
        with_sub = HashingEmbedder(dim=256, use_subwords=True)
        without = HashingEmbedder(dim=256, use_subwords=False)
        sim_with = with_sub.embed("retime") @ with_sub.embed("retiming")
        sim_without = without.embed("retime") @ without.embed("retiming")
        assert sim_with > sim_without

    def test_idf_downweights_common_terms(self):
        corpus = [f"command overview number {i}" for i in range(20)]
        corpus.append("retiming specifics")
        e = HashingEmbedder(dim=256).fit_idf(corpus)
        # 'command' appears everywhere, 'retiming' once: a query for
        # retiming must match the retiming doc better than any boilerplate.
        q = e.embed("retiming command")
        boiler = e.embed(corpus[0])
        specific = e.embed(corpus[-1])
        assert q @ specific > q @ boiler

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dim=0)

    def test_embed_batch_shape(self):
        e = HashingEmbedder(dim=32)
        out = e.embed_batch(["a b", "c d", "e f"])
        assert out.shape == (3, 32)
        assert e.embed_batch([]).shape == (0, 32)

    @given(st.text(alphabet="abcdefg ", min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_norm_bounded(self, text):
        e = HashingEmbedder(dim=64)
        assert np.linalg.norm(e.embed(text)) <= 1.0 + 1e-9

