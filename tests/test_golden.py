"""Digests of the plan, cost, schema and proof-check outputs and of the CLI's refusals, so that "byte-identical" is
one test.

tests/golden.json holds the SHA-256 of canonical JSON over every case below. A change that moves a digest on
purpose updates golden.json and says in CHANGES.md which digest moved and why.
"""

import hashlib
import json
import random
from pathlib import Path

from slicekit.cli import main
from slicekit.cost import STRATEGIES, estimate_flops, load_model_dims
from slicekit.partition import ImageSize, VitSpec, select_partition
from slicekit.schema import serialize_layout, summary
from slicekit.verify import run_proof_checks
from test_cli import REFUSALS, STDERR, run_refusal
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


def cases():
    """(size, max_N) pairs: every seeded and edge size with and without a cap, and the capped-only sizes."""
    return [(size, cap) for size in seeded_sizes() + EDGE_SIZES for cap in CAPS] + [(s, 6) for s in CAPPED_ONLY_SIZES]


def plan_and_cost_records(dims):
    for (w, h), cap in cases():
        image = ImageSize(w, h)
        yield {"size": [w, h], "max_N": cap,
               "plan": outcome(lambda: select_partition(image, VIT, cap)),
               "cost": {s: outcome(lambda: estimate_flops(dims, image, s, 0, VIT, cap)) for s in STRATEGIES}}


def schema_records():
    """The summary of every plan the cases make; plan_and_cost pins the refusals."""
    for (w, h), cap in cases():
        try:
            plan = select_partition(ImageSize(w, h), VIT, cap)
        except ValueError:
            continue
        yield {"size": [w, h], "max_N": cap, "summary": summary(serialize_layout(plan, 64))}


def digest(value) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_plan_and_cost_digest():
    assert digest(list(plan_and_cost_records(load_model_dims()))) == GOLDEN["plan_and_cost"]


def test_schema_digest():
    assert digest(list(schema_records())) == GOLDEN["schema"]


def test_run_proof_checks_digests():
    """The whole verify report at 10^6 samples: bitwise the same Monte Carlo, sweep and closed forms."""
    for samples, seed in ((10**6, 1), (10**6 + 1, 3)):
        assert digest(run_proof_checks(samples, seed, 1500)) == GOLDEN[f"run_proof_checks/{samples}/{seed}"]


def test_verify_proofs_stdout_digest(capsys):
    """`slicekit verify proofs` at its defaults, run in process: the report as the CLI prints it."""
    assert main(["verify", "proofs"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN["cli/verify proofs"]


def test_cli_refusals_digest(tmp_path_factory, monkeypatch):
    """The stderr of every row of test_cli.REFUSALS, its directory as {tmp}: a message change moves this digest.

    A row that test_refusal already ran in this pytest run is not run again."""
    stderr = [[row.id, STDERR.get(row) or run_refusal(row, tmp_path_factory.mktemp("row"), monkeypatch)[2]]
              for row in REFUSALS]
    assert digest(stderr) == GOLDEN["cli/refusals"]
