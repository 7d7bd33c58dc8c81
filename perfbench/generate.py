"""Seeded scenario variants for the benchmark.

Seed 0 returns the bundled scenario text unchanged, byte for byte.  Any
other seed scales each ZIP load's ``p0`` and ``q0`` by one factor and each
converter's ``p_ref`` by another, every factor drawn from U(0.95, 1.05).
The draw depends only on the seed, the bundled scenario's name and the
variant index, so the same seed always gives the same files.
"""

import json
import random

SCALE_LO = 0.95
SCALE_HI = 1.05


def variant_text(base_text: str, name: str, seed: int, variant: int = 0) -> str:
    """Scenario JSON text for one seeded variant of a bundled scenario."""
    if seed == 0:
        return base_text
    rng = random.Random(f"{seed}/{name}/{variant}")
    data = json.loads(base_text)
    for load in data.get("zip_loads", []):
        factor = rng.uniform(SCALE_LO, SCALE_HI)
        for key in ("p0", "q0"):
            if key in load:
                load[key] = load[key] * factor
    for conv in data.get("converters", []):
        factor = rng.uniform(SCALE_LO, SCALE_HI)
        if "p_ref" in conv:
            conv["p_ref"] = conv["p_ref"] * factor
    return json.dumps(data, indent=2) + "\n"
