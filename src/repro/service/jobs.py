"""Job definitions for the attack service (ARCHITECTURE.md §11).

A *job* is one self-contained attack request: a kind (which primitive or
end-to-end attack to run), a machine profile to run it against, and a
kind-specific parameter mapping.  Jobs are executed by the
profile-sharded worker pool in :mod:`repro.service.pool`; each worker
owns one long-lived :class:`~repro.cpu.machine.Machine` per profile and
restores it to a pristine snapshot between jobs, so job handlers always
see a fresh machine while the pool keeps the construction cost warm.

Every handler threads the pool's shared
:class:`~repro.service.store.SnapshotStore` into the layer below it
(readers, the AES attack, the image recovery), which is what makes
repeated jobs against the same (profile, victim) skip their expensive
prefix work -- the service's whole performance story.

The request/response surface is deliberately plain data:
:class:`JobResult` / :class:`JobFailure` carry builtin payloads plus
timing and attempt accounting, so callers can aggregate them with
:mod:`repro.utils.stats` and the results writer without custom glue.
"""

from __future__ import annotations

import dataclasses
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cpu.config import MachineConfig, SKYLAKE
from repro.cpu.machine import Machine
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program


class ServiceError(RuntimeError):
    """Misuse of the attack service (unknown kind, bad parameters, ...)."""


# ----------------------------------------------------------------------
# request specs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MachineSpec:
    """A machine profile request: which simulated CPU to attack.

    Jobs carrying equal specs land on the same worker shard, sharing
    warm machines and store-served checkpoints; the shard key is the
    full-config digest, so two specs differing in any predictor
    parameter never share state.
    """

    config: MachineConfig = SKYLAKE
    #: Predictor-family override (a :mod:`repro.cpu.model` registry id);
    #: ``None`` keeps ``config.predictor_model``.  Lets a client sweep
    #: the backend axis without restating the whole machine config; the
    #: override participates in the digest through the effective config,
    #: so per-family jobs shard and checkpoint separately.
    predictor_model: Optional[str] = None

    def effective_config(self) -> MachineConfig:
        """The config with any predictor-family override applied."""
        if (self.predictor_model is None
                or self.predictor_model == self.config.predictor_model):
            return self.config
        return dataclasses.replace(self.config,
                                   predictor_model=self.predictor_model)

    def digest(self) -> str:
        from repro.service.store import profile_digest
        return profile_digest(self.effective_config())

    def build(self) -> Machine:
        return Machine(self.effective_config())


@dataclass(frozen=True)
class VictimProgramSpec:
    """A deterministic victim program, described by value.

    Handlers rebuild the program from the spec on the worker's machine;
    because the spec (not a live object) names the victim, its digest is
    a sound content-address component and jobs can be retried or
    replayed anywhere.

    Shapes:

    * ``counted_loop`` -- ``iterations`` taken back edges then a
      fall-through (the Read_PHR / Read_PHT workhorse);
    * ``branchy`` -- ``conditional_count`` if/else diamonds keyed to the
      bits of ``seed`` (the extended-read / Pathfinder workhorse).
    """

    shape: str = "counted_loop"
    iterations: int = 40
    seed: int = 0b1011_0110_1001
    conditional_count: int = 12
    base: int = 0x41_0000

    def build(self) -> Program:
        if self.shape == "counted_loop":
            b = ProgramBuilder(f"loop_{self.iterations}", base=self.base)
            b.mov_imm("rcx", self.iterations)
            b.label("loop")
            b.sub("rcx", imm=1, set_flags=True)
            b.label("loop_branch")
            b.jne("loop")
            b.ret()
            return b.build()
        if self.shape == "branchy":
            b = ProgramBuilder(f"branchy_{self.seed}", base=self.base)
            for index in range(self.conditional_count):
                bit_value = (self.seed >> index) & 1
                b.mov_imm("rbit", bit_value)
                b.cmp("rbit", imm=1)
                b.jeq(f"then_{index}")
                b.nop(2)
                b.jmp(f"join_{index}")
                b.label(f"then_{index}")
                b.nop(1)
                b.label(f"join_{index}")
            b.ret()
            return b.build()
        raise ServiceError(f"unknown victim shape {self.shape!r}; "
                           f"expected 'counted_loop' or 'branchy'")

    def expected_outcomes(self) -> List[bool]:
        """Ground-truth taken/not-taken per diamond (``branchy`` only)."""
        if self.shape != "branchy":
            raise ServiceError(
                f"expected_outcomes is only defined for 'branchy' victims, "
                f"not {self.shape!r}")
        return [bool((self.seed >> index) & 1)
                for index in range(self.conditional_count)]

    def taken_branches(self) -> int:
        """How many taken branches one run of the victim retires."""
        if self.shape == "counted_loop":
            return self.iterations - 1
        if self.shape == "branchy":
            # Each diamond takes exactly one branch: ``jeq`` or ``jmp``.
            return self.conditional_count
        raise ServiceError(f"unknown victim shape {self.shape!r}; "
                           f"expected 'counted_loop' or 'branchy'")

    def digest(self) -> str:
        from repro.service.store import program_digest
        return program_digest(self.build())


# ----------------------------------------------------------------------
# job + outcomes
# ----------------------------------------------------------------------

#: Families whose history is a register of direction bits, with no
#: doublet PHR or tagged PHT tables for Read_PHR, Read_PHT or the
#: extended read's probes to drive.  An extended read still works while
#: the victim's history fits the register, since it then needs no probe.
_NO_PHR_FAMILIES = frozenset({"gshare-tournament"})


def _refuse_unsupported(kind: str, machine: MachineSpec,
                        params: Dict[str, Any]) -> None:
    """Raise :class:`ServiceError` for a job the family cannot serve."""
    config = machine.effective_config()
    family = config.predictor_model
    if family not in _NO_PHR_FAMILIES:
        return
    if kind in ("read_phr", "read_pht"):
        raise ServiceError(
            f"predictor family {family!r} cannot serve {kind!r} jobs")
    victim = params.get("victim")
    if (kind == "extended_read" and isinstance(victim, VictimProgramSpec)
            and victim.taken_branches() > config.phr_capacity):
        raise ServiceError(
            f"predictor family {family!r} cannot serve {kind!r} jobs "
            f"longer than its register: the victim takes "
            f"{victim.taken_branches()} branches, capacity "
            f"{config.phr_capacity}")


@dataclass
class Job:
    """One attack request."""

    kind: str
    machine: MachineSpec = field(default_factory=MachineSpec)
    params: Dict[str, Any] = field(default_factory=dict)
    #: Wall-clock budget in seconds (``None``: unbounded).  A job still
    #: queued past its deadline fails fast without running; a job
    #: running past it is reported as a timeout failure by ``gather``.
    timeout: Optional[float] = None
    #: Handler attempts before the job is reported failed (>= 1).  Each
    #: retry starts from a pristine machine.
    retry_budget: int = 1
    #: Free-form caller label, echoed on the outcome.
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in HANDLERS:
            raise ServiceError(
                f"unknown job kind {self.kind!r}; known kinds: "
                f"{', '.join(job_kinds())}")
        if self.retry_budget < 1:
            raise ServiceError(
                f"retry budget must be >= 1, got {self.retry_budget}")
        if self.timeout is not None and self.timeout <= 0:
            raise ServiceError(f"timeout must be positive, got {self.timeout}")
        _refuse_unsupported(self.kind, self.machine, self.params)


@dataclass
class JobResult:
    """A completed job."""

    job_id: str
    kind: str
    tag: Optional[str]
    value: Any
    #: Wall-clock seconds from first claim to completion (retries
    #: included).
    seconds: float
    attempts: int
    worker: Optional[str]
    ok: bool = True


@dataclass
class JobFailure:
    """A job that did not produce a result.

    Covers handler exceptions (after the retry budget), deadline
    expiries, and shutdown cancellations; ``error`` always starts with
    the exception type name, mirroring the trial harness's failure
    records.
    """

    job_id: str
    kind: str
    tag: Optional[str]
    error: str
    traceback: str = ""
    seconds: float = 0.0
    attempts: int = 0
    worker: Optional[str] = None
    ok: bool = False


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------
#
# Each handler is ``fn(ctx, params) -> payload`` where ``ctx`` is the
# worker's :class:`repro.service.pool.WorkerContext` (fresh machine +
# shared store) and the payload is builtin data.  Handlers raise on bad
# parameters; the pool turns exceptions into :class:`JobFailure`.

def _require(params: Dict[str, Any], name: str) -> Any:
    if name not in params:
        raise ServiceError(f"missing required job parameter {name!r}")
    return params[name]


def _victim_handle(machine: Machine, spec: VictimProgramSpec):
    from repro.primitives import VictimHandle
    return VictimHandle(machine, spec.build())


def _handle_read_phr(ctx, params: Dict[str, Any]) -> Dict[str, Any]:
    """Read the low PHR doublets a victim leaves behind (Primitive 1)."""
    from repro.primitives import PhrReader

    spec = _require(params, "victim")
    machine = ctx.fresh_machine()
    reader = PhrReader(
        machine,
        _victim_handle(machine, spec),
        warmup=params.get("warmup", 16),
        measure=params.get("measure", 16),
        reuse=params.get("reuse", "checkpoint"),
        store=ctx.store,
    )
    result = reader.read(count=params.get("count"))
    return {
        "doublets": result.doublets,
        "confidence": result.confidence,
        "iterations": result.iterations,
        "replay": reader.replay.stats.as_dict() if reader.replay else None,
    }


def _handle_extended_read(ctx, params: Dict[str, Any]) -> Dict[str, Any]:
    """Recover a history longer than the PHR (Section 5's extension)."""
    from repro.primitives import ExtendedPhrReader
    from repro.primitives.extended_read import TakenBranch

    spec = _require(params, "victim")
    machine = ctx.fresh_machine()
    machine.clear_phr()
    handle = _victim_handle(machine, spec)
    recorded = handle.profile()
    taken = [TakenBranch(b.pc, b.target, b.conditional)
             for b in recorded if b.taken]
    reader = ExtendedPhrReader(
        machine,
        rounds=params.get("rounds", 4),
        reuse=params.get("reuse", None),
    )
    result = reader.read(taken)
    return {
        "doublets": result.doublets,
        "complete": result.complete,
        "probes": result.probes,
        "history_length": len(taken),
    }


def _handle_pathfinder_trace(ctx, params: Dict[str, Any]) -> Dict[str, Any]:
    """Turn a victim's observed history into its executed path."""
    from repro.cpu.phr import replay_taken_branches
    from repro.pathfinder import cached_cfg, cached_path_search

    spec = _require(params, "victim")
    machine = ctx.fresh_machine()
    machine.clear_phr()
    handle = _victim_handle(machine, spec)
    recorded = handle.profile()
    taken = [(b.pc, b.target) for b in recorded if b.taken]
    observed = replay_taken_branches(len(taken), taken).doublets()
    program = handle.program
    cfg = cached_cfg(program, entry=program.entry)
    paths = cached_path_search(
        cfg, mode=params.get("mode", "exact"),
        max_paths=params.get("max_paths", 4)).search(observed)
    if not paths:
        raise ServiceError("Pathfinder found no path matching the history")
    outcomes = paths[0].branch_outcomes
    return {
        "branch_outcomes": [(pc, bool(flag)) for pc, flag in outcomes],
        "candidates": len(paths),
        "doublets": list(observed),
    }


def _handle_read_pht(ctx, params: Dict[str, Any]) -> Dict[str, Any]:
    """Batch Read_PHT over one victim run (Primitive 3)."""
    from repro.primitives import PhtReader

    spec = _require(params, "victim")
    coordinates = [tuple(pair) for pair in _require(params, "coordinates")]
    machine = ctx.fresh_machine()
    handle = _victim_handle(machine, spec)
    reader = PhtReader(machine)

    def run_victim() -> None:
        machine.clear_phr()
        handle.invoke()

    results = reader.read_batch(
        coordinates, run_victim,
        reuse=params.get("reuse", "checkpoint"),
        store=ctx.store,
        store_scope=("victim-program", spec.digest()),
    )
    return {
        "mispredictions": [r.mispredictions for r in results],
        "inferred_counters": [r.inferred_counter for r in results],
        "probes": sum(r.probes for r in results),
    }


def _handle_write_pht(ctx, params: Dict[str, Any]) -> Dict[str, Any]:
    """Plant a prediction at one (PC, PHR) coordinate (Primitive 2)."""
    from repro.primitives import PhtWriter

    pc = _require(params, "pc")
    phr_value = _require(params, "phr_value")
    taken = bool(_require(params, "taken"))
    machine = ctx.fresh_machine()
    PhtWriter(machine).write(pc, phr_value, taken=taken)
    # Probe with the machine's own history family at the planted value.
    phr = machine.model.build_history()
    phr.set_value(phr_value)
    prediction = machine.cbp.predict(pc, phr)
    return {
        "predicted_taken": prediction.taken,
        "planted": prediction.taken == taken,
    }


def _handle_aes_key_recovery(ctx, params: Dict[str, Any]) -> Dict[str, Any]:
    """The Section 9 end-to-end key extraction."""
    from repro.aes.attack import AesSpectreAttack

    key = bytes(_require(params, "key"))
    machine = ctx.fresh_machine()
    attack = AesSpectreAttack(
        machine, key,
        use_checkpoints=params.get("use_checkpoints", True),
        retry_budget=params.get("leak_retry_budget", 8),
        store=ctx.store,
    )
    recovered = attack.recover_key(workers=1)
    return {
        "recovered_key": recovered,
        "match": recovered == key,
    }


def _handle_image_recovery(ctx, params: Dict[str, Any]) -> Dict[str, Any]:
    """The Section 8 end-to-end image recovery."""
    from repro.jpeg.codec import JpegCodec
    from repro.jpeg.recovery import ImageRecoveryAttack

    encoded = _require(params, "encoded")
    machine = ctx.fresh_machine()
    attack = ImageRecoveryAttack(
        machine,
        codec=JpegCodec(params.get("quality", 75)),
        extended_rounds=params.get("extended_rounds", 6),
        store=ctx.store,
    )
    recovered = attack.recover(encoded)
    return {
        "complexity_map": recovered.complexity_map.tolist(),
        "recovered_branches": recovered.recovered_branches,
        "probes": recovered.probes,
    }


def _handle_aes_victim_signatures(ctx,
                                  params: Dict[str, Any]) -> Dict[str, Any]:
    """Batched per-plaintext victim signatures, trace-cache accelerated.

    The service twin of :func:`repro.aes.trials.run_victim_signatures`:
    the bare looped AES victim runs once per plaintext on a
    :class:`~repro.batch.BatchMachine` seeded from the worker's pristine
    snapshot.  When the service carries a shared trace cache, plaintexts
    the cache has seen (repeat sweeps, retried jobs, other workers of
    the same shard) replay their captured architectural traces instead
    of re-interpreting phase 1.
    """
    from repro.aes.victim import AesVictim
    from repro.batch import BatchMachine, supports_config
    from repro.isa.memory import Memory

    key = bytes(_require(params, "key"))
    plaintexts = [bytes(p) for p in _require(params, "plaintexts")]
    if any(len(p) != 16 for p in plaintexts):
        raise ServiceError("plaintexts must be 16 bytes each")
    width = params.get("vectorize", 16)
    if not isinstance(width, int) or isinstance(width, bool) or width < 1:
        raise ServiceError(f"vectorize must be a positive integer, "
                           f"got {width!r}")
    machine = ctx.fresh_machine()
    if not supports_config(machine.config):
        raise ServiceError(
            "machine profile is unsupported by the batch engine")
    victim = AesVictim(key, data_path=params.get("data_path", "fast"))
    entry = victim.program.address_of("aes_encrypt")
    pristine = machine.snapshot()
    cache = getattr(ctx, "trace_cache", None)
    signatures = []
    for low in range(0, len(plaintexts), width):
        block = plaintexts[low:low + width]
        batch = BatchMachine.from_snapshot(machine.config, pristine,
                                           len(block))
        memories = []
        for plaintext in block:
            memory = Memory()
            victim.provision(memory, plaintext)
            memories.append(memory)
        results = batch.run_batch(victim.program, memories, entry=entry,
                                  trace="none", trace_cache=cache)
        signatures.extend(
            [victim.read_ciphertext(memory).hex(),
             result.perf.conditional_branches,
             result.perf.conditional_mispredictions]
            for result, memory in zip(results, memories))
    return {
        "signatures": signatures,
        "trace_cache": cache.stats.as_dict() if cache is not None else None,
    }


HANDLERS: Dict[str, Callable[[Any, Dict[str, Any]], Any]] = {
    "read_phr": _handle_read_phr,
    "extended_read": _handle_extended_read,
    "pathfinder_trace": _handle_pathfinder_trace,
    "read_pht": _handle_read_pht,
    "write_pht": _handle_write_pht,
    "aes_key_recovery": _handle_aes_key_recovery,
    "aes_victim_signatures": _handle_aes_victim_signatures,
    "image_recovery": _handle_image_recovery,
}


def job_kinds() -> Tuple[str, ...]:
    """The supported job kinds, sorted."""
    return tuple(sorted(HANDLERS))


def format_failure(job_id: str, job: Job, exc: BaseException,
                   seconds: float, attempts: int,
                   worker: Optional[str]) -> JobFailure:
    """A :class:`JobFailure` for ``exc``, harness-style formatted."""
    return JobFailure(
        job_id=job_id,
        kind=job.kind,
        tag=job.tag,
        error=f"{type(exc).__name__}: {exc}",
        traceback=_traceback.format_exc(),
        seconds=seconds,
        attempts=attempts,
        worker=worker,
    )
