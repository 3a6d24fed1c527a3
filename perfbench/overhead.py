"""Tracing overhead: traced minus untraced wall time of the same instances.

Run the same workload and seed with --trace 0 and --trace 1 first; each
run leaves its per-instance wall times in perfbench/out/.  The two runs
share their first instances, because the seed fixes the inputs.

    python3 perfbench/overhead.py construct-deep 1
"""

import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main() -> None:
    workload, seed = sys.argv[1], sys.argv[2]
    plain, traced = (json.loads((OUT / f"{workload}-seed{seed}-trace{t}.json").read_text())
                     ["instance_s"] for t in (0, 1))
    n = min(len(plain), len(traced))
    base, extra = sum(plain[:n]), sum(traced[:n]) - sum(plain[:n])
    print(f"{workload} seed {seed}: {n} instances, untraced {base:.3f} s, "
          f"traced - untraced {extra:+.3f} s ({100 * extra / base:+.1f}%)")


if __name__ == "__main__":
    main()
