"""Discretely conformal metrics with prescribed angle sums.

Newton iteration on per-vertex log scale factors, interleaved with
intrinsic Delaunay retriangulation by Ptolemy flips; surfaces with
boundary are handled through a reflection-symmetric double cover.
"""
