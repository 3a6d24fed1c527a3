"""The paper's prism labelings, kept as the reference.

prism_rows writes the two rings of C_{4k} x P_2 from the paper's
piecewise assignments for d = 3, 6 and 12 (the 12-divisible ones split
on the parity of k).  The package builds the prism from the same layer
rule as every deeper layer, so comparing the two checks that rule
against the paper's formulas by a path that shares no code with it.
"""


def prism_rows(k: int, variant: int) -> tuple[list[int], list[int]]:
    # Piecewise assignments for the two rings; positions are 1-based,
    # list index j-1 holds position j.  Ring 1 odd positions are 2i+1,
    # even positions 2i.
    w = 4 * k
    r1 = [0] * w
    r2 = [0] * w
    if variant == 3:
        r1[0] = 6 * k + 1
        for i in range(1, 2 * k):
            r1[2 * i] = 8 * k + 2 - i if i <= k else 8 * k + 1 - i
        for i in range(1, 2 * k + 1):
            r1[2 * i - 1] = 4 * k + i
        for i in range(2 * k):
            r2[2 * i] = i
        for i in range(1, 2 * k + 1):
            r2[2 * i - 1] = 12 * k + 3 - i if i <= k else 12 * k + 2 - i
    elif variant == 6:
        r1[0] = 6 * k + 2
        for i in range(1, 2 * k):
            r1[2 * i] = 8 * k + 4 - i if i <= k else 8 * k + 2 - i
        for i in range(1, 2 * k + 1):
            r1[2 * i - 1] = 4 * k + 1 + i
        for i in range(2 * k):
            r2[2 * i] = i
        for i in range(1, 2 * k + 1):
            r2[2 * i - 1] = 12 * k + 6 - i if i <= k else 12 * k + 4 - i
    elif variant == 12 and k % 2 == 0:
        r1[0] = 6 * k + 5
        for i in range(1, 2 * k):
            if i <= k // 2:
                r1[2 * i] = 8 * k + 8 - i
            elif i <= k:
                r1[2 * i] = 8 * k + 7 - i
            else:
                r1[2 * i] = 8 * k + 5 - i
        for i in range(1, 2 * k + 1):
            r1[2 * i - 1] = 4 * k + 3 + i if i <= 3 * k // 2 else 4 * k + 4 + i
        for i in range(2 * k):
            r2[2 * i] = i if i <= 3 * k // 2 - 1 else i + 1
        for i in range(1, 2 * k + 1):
            if i <= k // 2:
                r2[2 * i - 1] = 12 * k + 12 - i
            elif i <= k:
                r2[2 * i - 1] = 12 * k + 11 - i
            else:
                r2[2 * i - 1] = 12 * k + 9 - i
    elif variant == 12:
        r1[0] = 6 * k + 5
        for i in range(1, 2 * k):
            if i <= k:
                r1[2 * i] = 8 * k + 8 - i
            elif i <= (3 * k - 1) // 2:
                r1[2 * i] = 8 * k + 6 - i
            else:
                r1[2 * i] = 8 * k + 5 - i
        for i in range(1, 2 * k + 1):
            r1[2 * i - 1] = 4 * k + 3 + i if i <= (k + 1) // 2 else 4 * k + 4 + i
        for i in range(2 * k):
            r2[2 * i] = i if i <= (k - 1) // 2 else i + 1
        for i in range(1, 2 * k + 1):
            if i <= k:
                r2[2 * i - 1] = 12 * k + 12 - i
            elif i <= (3 * k - 1) // 2:
                r2[2 * i - 1] = 12 * k + 10 - i
            else:
                r2[2 * i - 1] = 12 * k + 9 - i
    else:
        raise ValueError(f"variant must be 3, 6 or 12, got {variant}")
    return r1, r2
