"""Regenerate ``morse_saddle.json``, the saddle that ``morse_refine`` starts near.

    python3 perfbench/make_fixture.py

The saddle comes from the table4 start at seed 42 (relaxed Pt island plus
0.05 A Gaussian noise), searched with ``convex_inner_cap=20``.  That run
converges in 12 outer iterations to the low, 0.502 eV saddle.  The fixture
is a property of the surface, so it stays valid whichever saddle later
changes to the escape phase make the default search find.
"""

import json
import sys
from dataclasses import replace

from env import bootstrap


def main():
    sk = bootstrap()
    import workloads as wl

    st = wl.MorseEscape().setup(42)
    rec = sk.run(st.p, st.starts[0], replace(wl.MORSE_CONFIG, convex_inner_cap=20))
    energy = st.p.energy(rec.x)
    print(f"status {rec.status}, {rec.iterations} outer iterations, index {rec.terminal_index}, "
          f"barrier {energy - st.e_min:.6f} eV")
    if not rec.converged or rec.terminal_index != 1:
        return 1
    data = {
        "description": "index-1 saddle of make_builtin('morse_island'), free coordinates in Angstrom",
        "generated_by": "python3 perfbench/make_fixture.py",
        "outer_iterations": rec.iterations,
        "energy_eV": energy,
        "barrier_eV": energy - st.e_min,
        "x": [float(v) for v in rec.x],
    }
    wl.FIXTURE.write_text(json.dumps(data, indent=1) + "\n")
    wl.load_fixture(st.p, st.e_min)  # the stored copy must verify as written
    print(f"wrote {wl.FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
