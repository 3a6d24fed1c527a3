"""Small graphs that more than one test module needs."""

from divgrace import SimpleGraph

# Its only non-trivial automorphism swaps 0 and 1, 2 and 3, and 4 and 5.
# With 0 and 1 fixed, 2 and 3 still agree in color and in their fixed
# neighbors, but no automorphism maps one onto the other.
SWAPPED_PAIRS = SimpleGraph(6, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5),
                                (2, 4), (3, 5)))
