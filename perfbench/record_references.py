"""Record the reference results the benchmark's correctness checks compare to.

    python3 perfbench/record_references.py

Runs every workload once per reference seed with the current sources and
writes references.json.  The committed file was recorded before any
optimisation; re-record only when a change is meant to alter results, and
say by how much.
"""

from __future__ import annotations

import json
import sys

from child import import_fchsim
from run import WORKDIR


def main() -> int:
    import_fchsim()
    from spans import LIGHT_LAYERS, Tracer
    from workloads import REF_BANK, REFERENCES_PATH, WORKLOADS

    import fchsim.energy as E

    WORKDIR.mkdir(exist_ok=True)
    refs = {}
    with Tracer(LIGHT_LAYERS) as tracer:
        for name, wl in WORKLOADS.items():
            seeds = range(REF_BANK) if name == "spinodal-128" else [0]
            entry = {}
            for seed in seeds:
                st = wl.setup(seed, WORKDIR)
                tracer.reset()
                tracer.active = True
                out = wl.run(st, tracer)
                tracer.active = False
                energy = E.energy_total(out.phi, st.grid, st.pp).total
                print(f"{name} seed {seed}: {len(out.records)} steps, E = {energy!r}")
                if name == "spinodal-128":
                    entry.setdefault("energy", {})[str(seed)] = energy
                else:
                    entry["energy"] = energy
                if hasattr(wl, "mms_l2_err"):
                    entry["mms_l2_err"] = wl.mms_l2_err(st, out)
            refs[name] = entry
    REFERENCES_PATH.write_text(json.dumps(refs, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
