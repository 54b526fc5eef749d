"""Compile-equivalence golden: a canonical digest of every prepared kernel.

Each (kernel, mechanism) artifact the engine serves is reduced to a
process-independent description — instrumented kernel, per-position
:class:`~repro.ctxback.plan.InstrPlan` fields with routine assembly text,
CKPT sites with sorted register sets, saved values by home register and
defining position — and hashed.  The digests in
``tests/golden/prepared_digest.json`` were captured from the standalone
``Mechanism.prepare`` path; the engine path (``prepared_for``, which keys on
the register-file spec only and composes ``combined`` from the cached
``ctxback`` artifact) must reproduce them exactly.

Tier-1 covers the 12 suite kernels × the six mechanisms; the five ablation
configurations of the CTXBack pass run under ``REPRO_FULL_SWEEP=1``.

Regenerate (only when a compiler change is *meant* to change plans)::

    PYTHONPATH=src python tests/test_prepared_digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cache import describe_kernel
from repro.analysis.experiments import ABLATION_VARIANTS
from repro.isa.assembler import serialize
from repro.kernels.suite import SUITE
from repro.mechanisms import ALL_MECHANISMS, Combined, CtxBack, make_mechanism
from repro.sim.config import GPUConfig

GOLDEN = Path(__file__).parent / "golden" / "prepared_digest.json"


def _config() -> GPUConfig:
    return GPUConfig.radeon_vii()


def describe_prepared(prepared) -> dict:
    """Canonical JSON-able content of a :class:`PreparedKernel`."""
    plans = []
    for n in sorted(prepared.plans):
        plan = prepared.plans[n]
        plans.append({
            "position": plan.position,
            "mechanism": plan.mechanism,
            "preempt": serialize(plan.preempt_routine),
            "resume": serialize(plan.resume_routine),
            "resume_pc": plan.resume_pc,
            "context_bytes": plan.context_bytes,
            "est_preempt_cycles": plan.est_preempt_cycles,
            "est_resume_cycles": plan.est_resume_cycles,
            # a value's ``vid`` numbers block-entry registers in set order,
            # which varies with the hash seed; home + def_pos identify it
            "saved": [
                [str(s.value.home), s.value.def_pos, str(s.source_reg),
                 s.slot, s.nbytes]
                for s in plan.saved
            ],
            "flashback_pos": plan.flashback_pos,
            "deferred_to": plan.deferred_to,
            "reexec_count": plan.reexec_count,
        })
    sites = [
        [
            site.probe_id,
            site.position,
            sorted(str(reg) for reg in site.live_regs),
            site.nbytes,
            site.store_ops,
        ]
        for _, site in sorted(prepared.ckpt_sites.items())
    ]
    return {
        "kernel": describe_kernel(prepared.kernel),
        "mechanism": prepared.mechanism,
        "checkpoint_based": prepared.is_checkpoint_based,
        "drain": prepared.is_drain,
        "plans": plans,
        "ckpt_sites": sites,
    }


def prepared_digest(prepared) -> str:
    text = json.dumps(describe_prepared(prepared), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", sorted(SUITE))
def test_engine_prepared_matches_golden(key):
    from repro.analysis.engine import prepared_for

    golden = _golden()["mechanisms"]
    for mechanism in ALL_MECHANISMS:
        prepared = prepared_for(key, mechanism, _config())
        assert prepared_digest(prepared) == golden[f"{key}/{mechanism}"], mechanism


@pytest.mark.parametrize("key", sorted(SUITE))
def test_engine_combined_equals_standalone(key):
    """Composing ``combined`` from the cached ``ctxback`` artifact yields
    the same plans as running the whole pass from scratch."""
    from repro.analysis.engine import prepared_for

    config = _config()
    kernel = SUITE[key].launch(warp_size=config.warp_size).kernel
    standalone = Combined().prepare(kernel, config)
    engine = prepared_for(key, "combined", config)
    assert prepared_digest(engine) == prepared_digest(standalone)


@pytest.mark.full_sweep
@pytest.mark.skipif(
    not os.environ.get("REPRO_FULL_SWEEP"),
    reason="12 kernels × 5 ablation configs: set REPRO_FULL_SWEEP=1",
)
@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_ablation_prepared_matches_golden(variant):
    from repro.analysis.engine import prepared_for

    golden = _golden()["ablation"]
    for key in sorted(SUITE):
        prepared = prepared_for(
            key, "ctxback", _config(), ctx_config=ABLATION_VARIANTS[variant]
        )
        assert prepared_digest(prepared) == golden[f"{key}/{variant}"], key


#: pickles the ctxback and live artifacts of a few kernels; prints digests
_PICKLE_SCRIPT = """
import hashlib, pickle
from repro.analysis.cache import configure_cache
from repro.analysis.engine import prepared_for
from repro.sim.config import GPUConfig

configure_cache(enabled=False)
for key in ("ge", "va", "km"):
    for mechanism in ("ctxback", "live"):
        prepared = prepared_for(key, mechanism, GPUConfig.radeon_vii())
        blob = pickle.dumps(prepared, protocol=pickle.HIGHEST_PROTOCOL)
        print(key, mechanism, hashlib.sha256(blob).hexdigest())
"""


def test_artifact_pickles_do_not_depend_on_the_hash_seed():
    """The cached bytes of an artifact are the same in every process:
    value ids and register-set orders must not follow ``PYTHONHASHSEED``."""
    outputs = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        run = subprocess.run(
            [sys.executable, "-c", _PICKLE_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        assert len(run.stdout.splitlines()) == 6
        outputs.add(run.stdout)
    assert len(outputs) == 1


def compute_golden() -> dict:
    """Digests from the standalone ``Mechanism.prepare`` path."""
    config = _config()
    mechanisms, ablation = {}, {}
    for key in sorted(SUITE):
        kernel = SUITE[key].launch(warp_size=config.warp_size).kernel
        for mechanism in ALL_MECHANISMS:
            prepared = make_mechanism(mechanism).prepare(kernel, config)
            mechanisms[f"{key}/{mechanism}"] = prepared_digest(prepared)
        for variant, ctx_config in sorted(ABLATION_VARIANTS.items()):
            prepared = CtxBack(ctx_config).prepare(kernel, config)
            ablation[f"{key}/{variant}"] = prepared_digest(prepared)
    return {"mechanisms": mechanisms, "ablation": ablation}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_prepared_digest.py --write")
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
