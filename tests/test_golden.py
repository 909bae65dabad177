"""Digests of the plan and cost outputs over a seeded size set, so that "byte-identical" is one test.

tests/golden.json holds the SHA-256 of canonical JSON over every case below. A change that moves a digest on
purpose updates golden.json and says in CHANGES.md which digest moved and why.
"""

import hashlib
import json
import random
from pathlib import Path

from slicekit.cost import STRATEGIES, estimate_flops, load_model_dims
from slicekit.partition import ImageSize, VitSpec, select_partition
from test_partition import SUB_PATCH_SIZES

VIT = VitSpec()
GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())
CAPS = (None, 6)

# the classes other tests name: sides below one patch, the sub-patch 1x1 fallbacks and their neighbours,
# the paper's sizes, and the large images kept whole at N = 5938
EDGE_SIZES = [(5, 5), (13, 4000), (4000, 13), (13, 14), (14, 14), *SUB_PATCH_SIZES, (28, 14), (14, 28),
              (336, 336), (672, 1008), (672, 1088), (2000, 2000), (25890, 25890), (25891, 25891)]
# refused under max_N; uncapped they would be cut into millions of slices
CAPPED_ONLY_SIZES = [(10**6, 10**6), (10**8, 10**8)]


def seeded_sizes(count=400, seed=1):
    rng = random.Random(seed)
    return [(rng.randint(14, 4032), rng.randint(14, 4032)) for _ in range(count)]


def outcome(call):
    """The output's JSON dict, or the one-line error text of a refused size."""
    try:
        return call().to_json_dict()
    except ValueError as e:
        return {"error": str(e)}


def plan_and_cost_records(dims):
    cases = [(size, cap) for size in seeded_sizes() + EDGE_SIZES for cap in CAPS]
    cases += [(size, 6) for size in CAPPED_ONLY_SIZES]
    for (w, h), cap in cases:
        image = ImageSize(w, h)
        yield {"size": [w, h], "max_N": cap,
               "plan": outcome(lambda: select_partition(image, VIT, cap)),
               "cost": {s: outcome(lambda: estimate_flops(dims, image, s, 0, VIT, cap)) for s in STRATEGIES}}


def digest(records) -> str:
    canonical = json.dumps(list(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_plan_and_cost_digest():
    assert digest(plan_and_cost_records(load_model_dims())) == GOLDEN["plan_and_cost"]
