"""Statistical design-space explorer: annealed multi-gate sizing.

The greedy passes in :mod:`repro.synth.optimizer` move one gate at a
time and only ever accept improvements — they stop at the nearest local
optimum.  This module searches the sizing design space statistically,
in the style of perturbation-driven STA exploration: randomized
**multi-gate** move sets (several cells rebound to different drive
strengths per trial, drawn from the per-library neighbor tables of
:func:`repro.synth.passes.sizing_neighbors`), a simulated-annealing
acceptance rule with geometric cooling and restart schedules, and a
parallel multi-start driver that fans independent seeded chains across
:mod:`repro.parallel` and reduces them with an order-independent
best-of.

Scoring rides the batched trial kernels: each proposal batch is one
side-effect-free :meth:`TimingEngine.trial_metrics_batch` sweep — a
grouped 2-D cone-restricted kernel evaluating every move set at once,
each lane bit-identical to committing that move set and re-analyzing
(``tests/synth/test_explore.py`` replays whole chains on scalar
commit-measure-revert verdicts and checks the walks are identical).

Determinism: every random draw comes from a :func:`repro.rand.rng`
stream keyed by ``(seed, "explore", chain_index)``; chains never touch
shared mutable state (each runs on its own netlist clone); and the
multi-start reduction picks the winner by ``(cost, chain_index)``, so
results are bit-identical for a given seed set regardless of backend
(thread vs process) or completion order.  The returned state is the
best *visited* state under the lexicographic ``(timing violation,
area)`` key — the initial state is in the visited set, so the pass
never worsens QoR.

Defaults are fixed (``budget=240`` trials per chain, ``chains=2``) and
nothing is read from the environment, so a script's ``explore_sizing``
line alone determines the run — the synthesis cache key covers it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .. import obs, perf
from ..hdl.netlist import Netlist
from ..parallel import parallel_map
from ..rand import rng as _stream_rng
from .library import TechLibrary
from .optimizer import PassResult, _context, _timed
from .passes import PassContext, sizing_neighbors
from .sdc import Constraints
from .wireload import WireLoadModel

__all__ = [
    "ExploreConfig",
    "ChainResult",
    "anneal_chain",
    "explore_sizing",
]


@dataclass(frozen=True)
class ExploreConfig:
    """Knobs for one exploration run.

    ``budget`` counts move-set trials per chain; ``max_gates`` bounds the
    gates rebound per move set; ``batch`` is the trial lanes per kernel
    sweep.  ``t0``/``cooling`` drive the geometric annealing schedule and
    ``restarts`` resets the temperature that many extra times across the
    budget (each restart re-seeds the walk from the best state seen).
    ``derate`` adds a pessimism margin (ns): slack below it counts as a
    timing violation while scoring.  ``crit_bias`` is the probability a
    move slot targets the current critical path while timing is
    violated; ``dir_bias`` is the probability the drive choice follows
    the helpful direction (stronger on the critical path, weaker for
    area recovery once timing is met).
    """

    budget: int = 240
    chains: int = 2
    seed: int = 0
    max_gates: int = 4
    batch: int = 16
    t0: float = 2.0
    cooling: float = 0.92
    restarts: int = 1
    derate: float = 0.0
    timing_weight: float = 1000.0
    crit_bias: float = 0.75
    dir_bias: float = 0.75


@dataclass(frozen=True)
class ChainResult:
    """Outcome of one annealing chain (deterministic per seed).

    ``cost`` is the lexicographic ``(timing violation, area)`` key of the
    best visited state and ``bindings`` maps only the cells whose library
    binding differs from the chain's start state (empty = no improvement
    found).  Wall-clock never appears here so results compare bit-equal
    across backends.
    """

    chain: int
    cost: tuple[float, float]
    cps: float
    area: float
    bindings: dict[str, str]
    trials: int
    accepted: int
    committed_gates: int
    batch_sizes: tuple[int, ...]


def _qor_key(cps: float, area: float, config: ExploreConfig) -> tuple[float, float]:
    """Lexicographic QoR order: close timing (above the derate) first."""
    return (max(0.0, config.derate - cps), area)


def _scalar_cost(cps: float, area: float, config: ExploreConfig) -> float:
    """Scalar annealing energy: weighted violation plus area."""
    return max(0.0, config.derate - cps) * config.timing_weight + area


def _directional(library: TechLibrary) -> dict[str, tuple[tuple, tuple]]:
    """``{lib_cell name -> (weaker names, stronger names)}`` per library."""
    neighbors = sizing_neighbors(library)
    table = {}
    for name, options in neighbors.items():
        drive = library.cell(name).drive
        weaker = tuple(o for o in options if library.cell(o).drive < drive)
        stronger = tuple(o for o in options if library.cell(o).drive > drive)
        table[name] = (weaker, stronger)
    return table


def _critical_pool(engine, sizable_set) -> tuple:
    """Sizable cells on the current critical path, path order."""
    report = engine.analyze(with_paths=True)
    path = report.critical_path
    if path is None:
        return ()
    return tuple(
        point.cell for point in path.points if point.cell in sizable_set
    )


def _propose(rng, cells, sizable, pool, pool_set, neighbors, directional,
             violated, config):
    """One randomized multi-gate move set against the current bindings.

    Slot draws bias toward the critical pool while timing is violated
    (``crit_bias``) and toward the helpful drive direction
    (``dir_bias``): stronger variants for critical cells under
    violation, weaker variants anywhere once timing is met.  Every draw
    comes from the chain's private stream, so the proposal sequence is
    deterministic per seed.
    """
    width = min(len(sizable), 1 + rng.randrange(max(1, config.max_gates)))
    chosen: dict[str, str] = {}
    attempts = 0
    while len(chosen) < width and attempts < width * 8:
        attempts += 1
        if violated and pool and rng.random() < config.crit_bias:
            name = pool[rng.randrange(len(pool))]
        else:
            name = sizable[rng.randrange(len(sizable))]
        if name in chosen:
            continue
        current = cells[name].lib_cell
        weaker, stronger = directional[current]
        options = neighbors[current]
        if violated:
            if name in pool_set and stronger and rng.random() < config.dir_bias:
                options = stronger
        elif weaker and rng.random() < config.dir_bias:
            options = weaker
        chosen[name] = options[rng.randrange(len(options))]
    return sorted(chosen.items())


def anneal_chain(
    netlist: Netlist,
    library: TechLibrary,
    wireload: WireLoadModel,
    constraints: Constraints,
    config: ExploreConfig,
    chain_index: int = 0,
    context: PassContext | None = None,
) -> ChainResult:
    """Run one simulated-annealing chain **in place** on ``netlist``.

    Callers that must preserve the input netlist pass a clone (the
    multi-start driver does).  The walk proposes batches of multi-gate
    move sets, scores each batch in one grouped trial sweep, commits the
    first Metropolis-accepted move set of the batch and discards the
    rest (their verdicts were measured against the pre-commit state).
    Restarts re-seed the walk from the best visited state.  Returns the
    best visited state under ``(violation, area)`` — which includes the
    start state, so a chain never reports a regression.
    """
    ctx = _context(context, netlist, library, wireload, constraints)
    engine = ctx.engine
    neighbors = sizing_neighbors(library)
    cells = netlist.cells
    sizable = [
        name
        for name, cell in cells.items()
        if cell.lib_cell is not None and neighbors.get(cell.lib_cell)
    ]
    cur_cps = engine.trial_cps()
    cur_area = engine.total_area()
    start_bindings = {name: cells[name].lib_cell for name in sizable}
    best_key = _qor_key(cur_cps, cur_area, config)
    best_state = (cur_cps, cur_area, {})
    if not sizable:
        return ChainResult(
            chain=chain_index, cost=best_key, cps=cur_cps, area=cur_area,
            bindings={}, trials=0, accepted=0, committed_gates=0,
            batch_sizes=(),
        )

    rng = _stream_rng(config.seed, "explore", chain_index)
    directional = _directional(library)
    sizable_set = frozenset(sizable)
    pool = _critical_pool(engine, sizable_set)
    pool_set = frozenset(pool)
    trials = accepted = committed = 0
    batch_sizes: list[int] = []
    temperature = config.t0
    segment = max(1, -(-config.budget // (config.restarts + 1)))  # ceil div
    while trials < config.budget:
        width = min(config.batch, config.budget - trials)
        violated = cur_cps < config.derate
        with obs.span("explore.propose"):
            moves = [
                _propose(
                    rng, cells, sizable, pool, pool_set, neighbors,
                    directional, violated, config,
                )
                for _ in range(width)
            ]
        batch_sizes.append(width)
        with obs.span("explore.score"):
            verdicts = engine.trial_metrics_batch(moves)
        previous_trials = trials
        trials += width
        perf.incr("explore.moves", width)
        cur_cost = _scalar_cost(cur_cps, cur_area, config)
        pick = None
        for lane_index, (cps, area) in enumerate(verdicts):
            candidate = _scalar_cost(cps, area, config)
            if candidate <= cur_cost:
                pick = lane_index
                break
            if temperature > 0.0 and rng.random() < math.exp(
                -(candidate - cur_cost) / temperature
            ):
                pick = lane_index
                break
        if pick is not None:
            accepted += 1
            perf.incr("explore.accepted")
            for name, lib_name in moves[pick]:
                cells[name].lib_cell = lib_name
                committed += 1
            # The lane verdict is bit-identical to committing it and
            # re-analyzing, so the committed state needs no re-measure.
            cur_cps, cur_area = verdicts[pick]
            # The critical path may have moved; re-aim the proposal bias.
            pool = _critical_pool(engine, sizable_set)
            pool_set = frozenset(pool)
            key = _qor_key(cur_cps, cur_area, config)
            if key < best_key:
                best_key = key
                best_state = (
                    cur_cps, cur_area,
                    {
                        name: cells[name].lib_cell
                        for name in sizable
                        if cells[name].lib_cell != start_bindings[name]
                    },
                )
        temperature *= config.cooling
        if (
            trials < config.budget
            and trials // segment > previous_trials // segment
        ):
            # Restart: reset the temperature, rewind to the best state.
            temperature = config.t0
            best_cps, best_area, best_bindings = best_state
            for name in sizable:
                want = best_bindings.get(name, start_bindings[name])
                if cells[name].lib_cell != want:
                    cells[name].lib_cell = want
            cur_cps, cur_area = best_cps, best_area
            pool = _critical_pool(engine, sizable_set)
            pool_set = frozenset(pool)
    best_cps, best_area, best_bindings = best_state
    return ChainResult(
        chain=chain_index,
        cost=best_key,
        cps=best_cps,
        area=best_area,
        bindings=dict(best_bindings),
        trials=trials,
        accepted=accepted,
        committed_gates=committed,
        batch_sizes=tuple(batch_sizes),
    )


def _chain_task(
    netlist: Netlist,
    library: TechLibrary,
    wireload: WireLoadModel,
    constraints: Constraints,
    config: ExploreConfig,
    chain_index: int,
) -> ChainResult:
    """One multi-start chain (module-level so process workers can run it)."""
    local = netlist.clone()
    with obs.span("explore.chain", chain=chain_index):
        return anneal_chain(
            local, library, wireload, constraints, config, chain_index
        )


def run_chains(
    netlist: Netlist,
    library: TechLibrary,
    wireload: WireLoadModel,
    constraints: Constraints,
    config: ExploreConfig,
    jobs: int | None = None,
) -> list[ChainResult]:
    """Fan ``config.chains`` independent seeded chains across the pool.

    The design is bound into the task function once, so the process
    backend ships it to each worker once per map; each chain clones the
    netlist so the input is never mutated.  Results come back in chain
    order — bit-identical across backends.
    """
    results = parallel_map(
        partial(_chain_task, netlist, library, wireload, constraints, config),
        range(config.chains), jobs=jobs, label="explore",
    )
    return [result for result in results if result is not None]


def reduce_chains(results: list[ChainResult]) -> ChainResult | None:
    """Order-independent best-of: min by ``(cost, chain_index)``."""
    best = None
    for result in results:
        if best is None or (result.cost, result.chain) < (best.cost, best.chain):
            best = result
    return best


#: Buckets for the per-chain proposal-batch width histogram.
_EXPLORE_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _record_metrics(results: list[ChainResult]) -> None:
    """Publish the chains' proposal-batch widths on the metrics endpoint."""
    from ..obs import metrics

    hist = metrics.histogram(
        "repro_explore_batch_size",
        "Proposal-batch widths per explorer chain",
        buckets=_EXPLORE_BATCH_BUCKETS,
    )
    for result in results:
        for width in result.batch_sizes:
            hist.observe(float(width), chain=str(result.chain))


@_timed
def explore_sizing(
    netlist: Netlist,
    library: TechLibrary,
    wireload: WireLoadModel,
    constraints: Constraints,
    budget: int = 240,
    seed: int = 0,
    chains: int = 2,
    max_gates: int = 4,
    batch: int = 16,
    t0: float = 2.0,
    cooling: float = 0.92,
    restarts: int = 1,
    derate: float = 0.0,
    context: PassContext | None = None,
    jobs: int | None = None,
    config: ExploreConfig | None = None,
) -> PassResult:
    """Parallel multi-start annealed sizing as an optimization pass.

    Runs ``chains`` independent seeded annealing chains over clones of
    ``netlist`` (thread or process backend per ``REPRO_PARALLEL_BACKEND``),
    reduces them order-independently, and applies the winning bindings
    through the change journal — so a shared :class:`PassContext` engine
    folds the result incrementally like any other pass.  Because every
    chain's best-of includes its start state, the pass never worsens the
    lexicographic ``(timing violation, area)`` QoR of its input; run it
    after the greedy passes to claw back what they left on the table.
    """
    if config is None:
        config = ExploreConfig(
            budget=budget, chains=chains, seed=seed, max_gates=max_gates,
            batch=batch, t0=t0, cooling=cooling, restarts=restarts,
            derate=derate,
        )
    ctx = _context(context, netlist, library, wireload, constraints)
    engine = ctx.engine
    report = engine.analyze(with_paths=False)
    wns_before = report.wns
    area_before = engine.total_area()
    with obs.span(
        "explore.run",
        chains=config.chains, budget=config.budget,
    ):
        results = run_chains(
            netlist, library, wireload, constraints, config, jobs=jobs
        )
        with obs.span("explore.reduce"):
            best = reduce_chains(results)
        changes = 0
        if best is not None and best.bindings:
            cells = netlist.cells
            for name, lib_name in best.bindings.items():
                if cells[name].lib_cell != lib_name:
                    cells[name].lib_cell = lib_name
                    changes += 1
    _record_metrics(results)
    after = engine.analyze(with_paths=False)
    return PassResult(
        name="explore_sizing",
        changes=changes,
        wns_before=wns_before,
        wns_after=after.wns,
        area_before=area_before,
        area_after=engine.total_area(),
    )
