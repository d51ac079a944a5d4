"""Word problem and projective path realization for subset-indexed involution groups.

The group G_{k+1}^k on the k-subsets of {1..k+1} is generated by
involutions with one palindromic window relation.  This package decides
(k = 3) or semi-decides (k >= 4) the word problem through an obstruction
map into a free product, rewrites words off their last generator with
replayable traces, and realizes words as piecewise linear motions of point
configurations in projective space whose degeneration events spell the
word back out, all in exact rational arithmetic.
"""

__version__ = "0.1.0"
