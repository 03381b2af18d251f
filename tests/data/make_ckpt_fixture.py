"""Write ``tests/data/ckpt_v7_pr21``: a checkpoint store and the digest of
the uninterrupted run, both produced by the checkout this script runs from.

    python3 tests/data/make_ckpt_fixture.py            # from the commit to freeze

``tests/test_schedule_path.py::TestParentCheckpoint`` resumes the store on
the current code and expects the recorded digest, so the fixture is only
regenerated when the on-disk checkpoint format version changes.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from oracle import run_digest  # noqa: E402
from repro.core.online import OnlinePolicy  # noqa: E402
from repro.service.checkpoint import (  # noqa: E402
    CHECKPOINT_FORMAT_VERSION,
    Checkpointer,
    CheckpointStore,
)
from repro.sim.config import SimulationConfig  # noqa: E402
from repro.sim.engine import SimulationEngine  # noqa: E402

SLOT = 150


def main() -> None:
    out = HERE / "ckpt_v7_pr21"
    shutil.rmtree(out, ignore_errors=True)
    config = SimulationConfig(
        num_users=8, total_slots=600, app_arrival_prob=0.02, seed=5,
        num_train_samples=160, num_test_samples=40, hidden_dims=(4,),
        eval_interval_slots=120, trace_interval_slots=20,
    )
    store = CheckpointStore(out / "store", keep_last=1)
    result = SimulationEngine(config, OnlinePolicy(v=200.0)).run(
        Checkpointer(store.save, at_slots=[SLOT])
    )
    checkpoint = CheckpointStore(out / "store").load()
    expected = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "slot": checkpoint.slot,
        "inflight": SimulationEngine.restore(checkpoint).server.inflight_count(),
        "updates": result.num_updates,
        "digest": run_digest(result),
    }
    (out / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(expected)


if __name__ == "__main__":
    main()
