"""Measurement helpers shared by the experiment drivers.

Static context statistics are weighted by *dynamic execution counts* (a
reference-run PC histogram): the paper's kernels spend essentially all of
their time in the persistent-thread main loop, so a uniform static mean
would over-weight preamble/epilogue instructions that almost never host a
preemption signal.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field

from ..compiler.cfg import build_cfg
from ..ctxback.context import baseline_context_bytes
from ..kernels.builder import StandardLaunch
from ..mechanisms.base import PreparedKernel
from ..sim.config import GPUConfig
from ..sim.gpu import run_reference


def _launch_parts(launch: StandardLaunch, config: GPUConfig) -> dict:
    """Content description of a (launch, config) pair for the weights cache.

    Everything the PC histogram can depend on: the kernel's assembly and
    resources, the full config, and the launch shape (iteration count,
    warp count, buffer spans, extra ABI registers, resolved stride).  The
    ``stride_bytes`` callable is canonicalized by its *resolved* value at
    this warp size — the only form the simulation ever observes.
    """
    from .cache import canonical, describe_kernel

    warp_size = config.warp_size
    return {
        "kernel": describe_kernel(launch.kernel),
        "config": canonical(config),
        "iterations": launch.iterations,
        "num_warps": launch.num_warps or launch.kernel.warps_per_block,
        "a_words": launch.a_words_per_warp,
        "b_words": launch.b_words_per_warp,
        "out_words": launch.out_words_per_warp,
        "extra_sregs": canonical(launch.extra_sregs),
        "stride": launch.stride_bytes(warp_size)
        if launch.stride_bytes is not None
        else warp_size * 4,
    }


def dynamic_pc_weights(launch: StandardLaunch, config: GPUConfig) -> dict[int, int]:
    """Execution count per program counter from one reference run.

    Cached in the content-addressed artifact store keyed on the launch
    content + config (:func:`_launch_parts`), so repeated calls for the
    same launch pay the reference simulation once.  This is the entry
    point for launches built by hand, which have no benchmark name to key
    on.  The experiment engine's
    :func:`~repro.analysis.engine.weights_for` keys suite kernels on their
    benchmark name instead, so a cache hit there builds no launch; a
    launch reached through both paths is stored once under each key.
    """
    from .cache import get_cache

    return get_cache().get_or_create(
        "weights", _launch_parts(launch, config), lambda: pc_histogram(launch, config)
    )


def pc_histogram(launch: StandardLaunch, config: GPUConfig) -> dict[int, int]:
    """Execution count per program counter from one reference run, uncached."""
    return dict(run_reference(launch.spec(), config).sm.stats.pc_hist)


def weighted_context_bytes(
    prepared: PreparedKernel, weights: dict[int, int]
) -> float:
    """Execution-weighted mean context size of a prepared kernel.

    For CKPT the "context" of a position is the checkpoint its basic block
    saves (the paper's minimum-possible-size line in Fig. 7).
    """
    total = sum(weights.values())
    if total == 0:
        raise ValueError("empty pc histogram")
    if prepared.is_checkpoint_based:
        cfg = build_cfg(prepared.kernel.program)
        by_block = {site.probe_id: site.nbytes for site in prepared.ckpt_sites.values()}
        return (
            sum(by_block.get(cfg.block_of[pc], 0) * w for pc, w in weights.items())
            / total
        )
    return (
        sum(prepared.plans[pc].context_bytes * w for pc, w in weights.items()) / total
    )


@dataclass
class KernelRow:
    """One benchmark's values across mechanisms (normalized to BASELINE).

    A ``None`` value marks a cell whose work unit failed permanently under
    ``FailurePolicy.COLLECT`` — rendered as an explicit FAILED cell and
    skipped by the cross-kernel means.
    """

    key: str
    abbrev: str
    baseline_value: float | None
    normalized: dict[str, float | None] = field(default_factory=dict)


@dataclass
class FigureData:
    """One figure's full data: per-kernel rows plus cross-kernel means."""

    title: str
    rows: list[KernelRow]
    #: free-form notes carried into the report (calibration caveats etc.)
    notes: list[str] = field(default_factory=list)

    def mean(self, mechanism: str) -> float:
        """Cross-kernel mean, skipping FAILED (None) cells; NaN when every
        cell failed (keeps partial reports renderable)."""
        values = [
            row.normalized[mechanism]
            for row in self.rows
            if row.normalized[mechanism] is not None
        ]
        return statistics.mean(values) if values else float("nan")

    def mean_reduction_pct(self, mechanism: str) -> float:
        return 100.0 * (1.0 - self.mean(mechanism))

    def subset_mean(self, mechanism: str, keys) -> float | None:
        """Mean over the given kernel subset; None when no row matches
        (e.g. a ``--keys`` selection that excludes the whole subset)."""
        wanted = set(keys)
        values = [
            row.normalized[mechanism]
            for row in self.rows
            if row.key in wanted and row.normalized[mechanism] is not None
        ]
        return statistics.mean(values) if values else None

    def mechanisms(self) -> list[str]:
        names: list[str] = []
        for row in self.rows:
            for name in row.normalized:
                if name not in names:
                    names.append(name)
        return names

    def to_dict(self) -> dict:
        """JSON-ready structure (for artifacts / downstream plotting)."""
        return {
            "title": self.title,
            "rows": [
                {
                    "key": row.key,
                    "abbrev": row.abbrev,
                    "baseline": row.baseline_value,
                    "normalized": dict(row.normalized),
                }
                for row in self.rows
            ],
            "means": {m: self.mean(m) for m in self.mechanisms()},
            "notes": list(self.notes),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), indent=2, **kwargs)


def kernel_baseline_bytes(launch: StandardLaunch, config: GPUConfig) -> int:
    return baseline_context_bytes(launch.kernel, config.rf_spec)
