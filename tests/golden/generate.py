"""Regenerate the golden-value regression fixtures (ISSUE-2 satellite).

Runs the fixed golden protocol through the LS3DF driver on two toy
systems and stores total energy, patched quantum energy,
per-iteration convergence/energy histories and folded-spectrum band-edge
eigenvalues as JSON under ``tests/golden/``.

``tests/test_golden_regression.py`` re-runs the same protocol and compares
at 1e-10, so any refactor that silently changes physics (summation order,
potential assembly, eigensolver behaviour) fails loudly.  Regenerate ONLY
when a change is *supposed* to move the numbers, and say why in the
commit:

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN_DIR.parents[1] / "src"))

from repro.atoms.toy import cscl_binary  # noqa: E402
from repro.core.driver import LS3DF  # noqa: E402

#: The two seed systems and the exact run protocol (fixed forever; the
#: test re-runs precisely this).  Deliberately small: the fixtures anchor
#: drift, they do not claim converged physics.  Keep every system at
#: <= 8 fragments (the default patch_chunk_size): the Gen_dens tree-reduce
#: then sums in the sequential order the stored fixtures were generated
#: with, which test_golden_regression relies on (and asserts).
SYSTEMS = {
    "zno_2x1x1": dict(cation="Zn", anion="O", lattice=6.0, dims=(2, 1, 1)),
    "gaas_1x1x2": dict(cation="Ga", anion="As", lattice=6.5, dims=(1, 1, 2)),
}
PROTOCOL = dict(
    ecut=2.2,
    buffer_cells=0.5,
    n_empty=2,
    mixer="kerker",
    run=dict(
        max_iterations=5,
        potential_tolerance=1e-6,
        eigensolver_tolerance=1e-5,
        eigensolver_iterations=50,
    ),
    band_edge=dict(n_states=2, tolerance=1e-6, max_iterations=80),
)


def run_protocol(name: str):
    """One golden run; the regression test calls this too."""
    spec = SYSTEMS[name]
    structure = cscl_binary(spec["dims"], spec["cation"], spec["anion"], spec["lattice"])
    ls3df = LS3DF(
        structure,
        grid_dims=spec["dims"],
        ecut=PROTOCOL["ecut"],
        buffer_cells=PROTOCOL["buffer_cells"],
        n_empty=PROTOCOL["n_empty"],
        mixer=PROTOCOL["mixer"],
    )
    result = ls3df.run(**PROTOCOL["run"])
    states = ls3df.band_edge_states(result, **PROTOCOL["band_edge"])
    return ls3df, result, states


def golden_payload(name: str) -> dict:
    _, result, states = run_protocol(name)
    return {
        "system": name,
        "protocol": PROTOCOL,
        "total_energy": result.total_energy,
        "quantum_energy": result.quantum_energy,
        "iterations": result.iterations,
        "converged": result.converged,
        "convergence_history": list(result.convergence_history),
        "energy_history": list(result.energy_history),
        "band_edge_energies": [float(e) for e in states.energies],
        "band_edge_reference": float(states.reference_energy),
    }


def main() -> None:
    for name in SYSTEMS:
        payload = golden_payload(name)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}  E={payload['total_energy']:.12f} "
              f"band edges={payload['band_edge_energies']}")


if __name__ == "__main__":
    main()
