"""Offline text embedding (the OpenAI ``text-embedding-3-large`` substitute).

:class:`HashingEmbedder` provides deterministic dense embeddings via the
hashing trick with subword n-grams.
"""

from .hashing import HashingEmbedder
from .tokenizer import STOPWORDS, char_ngrams, word_tokens

__all__ = ["HashingEmbedder", "STOPWORDS", "char_ngrams", "word_tokens"]
