"""Word embeddings over the expertise corpus (Pruning Strategy 4).

ExES trains a word-embedding model W on the textual expertise corpus and
uses it to shortlist the ``t`` skills most similar to a query when searching
for skill and query counterfactuals (paper §3.3.1–3.3.2).  The trainer,
:func:`train_ppmi_embedding`, factorizes the positive PMI co-occurrence
matrix with truncated SVD behind the :class:`SkillEmbedding` interface
(Levy & Goldberg 2014 show that skip-gram with negative sampling, the
paper's Word2Vec [41] choice, implicitly factorizes this matrix).
"""

from repro.embeddings.cooccurrence import CooccurrenceCounts, count_cooccurrences
from repro.embeddings.similarity import SkillEmbedding
from repro.embeddings.ppmi import train_ppmi_embedding

__all__ = [
    "CooccurrenceCounts",
    "SkillEmbedding",
    "count_cooccurrences",
    "train_ppmi_embedding",
]
