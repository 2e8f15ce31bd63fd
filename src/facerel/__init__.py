"""facerel: pairwise social-relation traits from face images.

A desk-scale, numpy-only implementation of the full pipeline: a convolutional
attribute network pre-trained across heterogeneous corpora with missing
labels, a template-bank bridging descriptor that ties those corpora together,
and the pieces of a tied-trunk Siamese relation model with spatial cues.
"""

__version__ = "0.1.0"
