"""Embedding substrate: matrix-factorization network embedding methods.

The paper feeds the integrated MVAG Laplacian to classic embedding methods:
NetMF [33] on small/medium graphs and SketchNE [34] on million-scale ones.
Both are implemented from scratch here (see DESIGN.md §5 for the SketchNE
simplification), together with the randomized SVD NetMF relies on.
"""

from repro.embedding.netmf import netmf_embedding, netmf_from_laplacian
from repro.embedding.sketchne import sketchne_embedding
from repro.embedding.spectral_embedding import spectral_node_embedding
from repro.embedding.svd import randomized_svd

__all__ = [
    "netmf_embedding",
    "netmf_from_laplacian",
    "sketchne_embedding",
    "spectral_node_embedding",
    "randomized_svd",
]
