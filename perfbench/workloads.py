"""The benchmark's three paper workloads.

Each workload turns a seed into inputs, runs its operations (a key, a
leak trial, an image or a service job) for a time window or a fixed
count, checks every output, and returns a :class:`RunResult`:

* ``aes-key-extraction`` -- paper §9 key extraction on fresh machines
  (Read PHR + Pathfinder profile, leak checkpoint, differential key
  recovery over a timed two-round oracle), then §9 leak sweeps through
  the trial harness's process pool;
* ``image-recovery`` -- paper §8 / Fig 7 recovery of seeded 48x48 JPEG
  images, one fresh machine per image;
* ``attack-service`` -- a closed loop keeping two jobs outstanding
  against one :class:`~repro.service.AttackService` with three predictor
  family shards, an on-disk snapshot store and a trace cache.

Every run also records a fingerprint: exact simulated counts and an
output digest over a fixed prefix of operations, which repeat across
runs of one seed however long the run is.
"""

from __future__ import annotations

import hashlib
import json
import queue
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from hostspeed import HostSpeed
from repro.aes import keyrecovery
from repro.aes.attack import AesSpectreAttack
from repro.aes.core import encrypt_block
from repro.aes.keyschedule import expand_key
from repro.aes.trials import AesAttackSpec, setup_attack, success_trial
from repro.cpu.config import FIRESTORM_M1, RAPTOR_LAKE, TOURNAMENT_BASELINE
from repro.cpu.machine import Machine
from repro.harness import run_trials
from repro.jpeg import images
from repro.jpeg.codec import JpegCodec
from repro.jpeg.recovery import ImageRecoveryAttack
from repro.service import (AttackService, Job, JobFailure, MachineSpec,
                           SnapshotStore, TraceCache, VictimProgramSpec)
from repro.service.jobs import HANDLERS
from repro.utils.rng import DeterministicRng
from repro.utils.stats import percentile


class CheckFailed(AssertionError):
    """An operation returned a wrong output."""


def derive(seed: int, *labels: Any) -> int:
    """A 63-bit seed for one named input stream of the workload seed."""
    text = json.dumps([seed, *labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8],
                          "big") >> 1


def digest(value: Any) -> str:
    """A short content digest of JSON-able ``value``."""
    text = json.dumps(value, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _jsonable(value: Any) -> Any:
    if isinstance(value, bytes):
        return value.hex()
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "__dataclass_fields__"):
        return {name: getattr(value, name)
                for name in value.__dataclass_fields__}
    raise TypeError(f"cannot digest {type(value).__name__}")


def tail_ms(latencies_s: List[float]) -> float:
    """The highest percentile up to p95 with at least ten samples beyond
    it (the median when fewer than twenty samples exist), in ms."""
    count = len(latencies_s)
    q = min(95.0, max(50.0, 100.0 * (1 - 10 / count)))
    return 1000 * percentile(latencies_s, q)


@dataclass
class RunResult:
    """What one measured run of a workload produced."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: End-to-end metric values (without ``setup_s``/``peak_rss_mb``),
    #: times scaled to the reference host speed (see hostspeed.py).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: The same metrics in this host's seconds.
    unscaled: Dict[str, float] = field(default_factory=dict)
    #: Per-layer values the workload measures itself (pool, harness).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Exact counts and digests over the fingerprint prefix.
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    #: Operation ids inside the fingerprint prefix.
    prefix_ops: set = field(default_factory=set)
    #: Host seconds the measured window took.
    wall_s: float = 0.0
    #: Calibration samples taken at operation boundaries.
    speed: HostSpeed = field(default_factory=HostSpeed)

    def fail(self, op: str, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{op}: {type(error).__name__}: {error}")


def scaled(unscaled: Dict[str, float], time_scale: float,
           rate_scale: Optional[float] = None) -> Dict[str, float]:
    """End-to-end metrics in reference-host units: times multiplied by
    ``time_scale``, the rate divided by ``rate_scale`` (default: the
    same factor)."""
    rate_scale = time_scale if rate_scale is None else rate_scale
    return {
        "op_ms": unscaled["op_ms"] * time_scale,
        "op_tail_ms": unscaled["op_tail_ms"] * time_scale,
        "work_per_s": unscaled["work_per_s"] / rate_scale,
        "accuracy": unscaled["accuracy"],
    }


def _perf_counts(machine: Machine) -> Dict[str, int]:
    perf = machine.perf
    return {
        "instructions": perf.instructions,
        "conditional_branches": perf.conditional_branches,
        "mispredictions": perf.conditional_mispredictions,
    }


def _add(counts: Dict[str, int], more: Dict[str, int]) -> None:
    for key, value in more.items():
        counts[key] = counts.get(key, 0) + value


def _span(tracer, name: str, counts: Optional[dict] = None):
    return tracer.span(name, counts) if tracer is not None \
        else nullcontext(counts)


# ----------------------------------------------------------------------
# aes-key-extraction
# ----------------------------------------------------------------------

class TimedOracle:
    """``attack.two_round_oracle`` with query, retry and time accounting.

    Every ``SAMPLE_EVERY``-th query also takes a host-speed sample, whose
    time (``calibration_s``) the key's timing leaves out.
    """

    SAMPLE_EVERY = 4

    def __init__(self, attack: AesSpectreAttack, speed: HostSpeed,
                 tracer=None) -> None:
        self.attack = attack
        self.speed = speed
        self.tracer = tracer
        self.queries = 0
        self.attempts = 0
        self.retried = 0
        self.seconds = 0.0
        self.calibration_s = 0.0

    def __call__(self, plaintext: bytes) -> bytes:
        if self.queries % self.SAMPLE_EVERY == 0:
            with _span(self.tracer, "hostspeed.sample"):
                self.calibration_s += self.speed.sample()
        counts: Dict[str, int] = {}
        started = time.perf_counter()
        with _span(self.tracer, "aes.oracle", counts):
            leak = self.attack.two_round_leak(plaintext)
            counts["attempts"] = leak.attempts
        self.seconds += time.perf_counter() - started
        self.queries += 1
        self.attempts += leak.attempts
        self.retried += leak.attempts > 1
        return bytes(leak.recovered)


class AesKeyExtraction:
    """Paper §9: leak sweeps, then key extraction per key."""

    name = "aes-key-extraction"
    #: Leak sweeps run for this share of the window (at least one);
    #: keys fill the rest (at least ``MIN_KEYS``).
    SWEEP_SHARE = 0.3
    MIN_KEYS = 2
    SWEEP_TRIALS = 256
    SWEEP_WORKERS = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        return None

    def key(self, index: int) -> bytes:
        return DeterministicRng(derive(self.seed, "aes-key", index)).bytes(16)

    def sweep_key(self, index: int) -> bytes:
        return DeterministicRng(derive(self.seed, "sweep-key",
                                       index)).bytes(16)

    def measure(self, context, seconds: float, ops: Optional[int],
                tracer=None) -> RunResult:
        result = RunResult()
        fingerprint: Dict[str, Any] = {"keys": [], "sweeps": []}
        started = time.perf_counter()

        leaked = matched = 0
        sweep_times: List[float] = []
        harness = {"elapsed_s": 0.0, "trial_busy_s": 0.0, "overhead_s": 0.0,
                   "failures": 0}
        sweep = 0
        while (sweep < ops if ops is not None else sweep == 0 or
               time.perf_counter() - started < self.SWEEP_SHARE * seconds):
            op = f"sweep-{sweep}"
            # The sweep runs two worker processes, so its host speed is
            # sampled with two processes side by side.
            result.speed.sample_parallel(self.SWEEP_WORKERS)
            if tracer is not None:
                tracer.set_op(op)
            op_started = time.perf_counter()
            with _span(tracer, "harness.run_trials"):
                report = run_trials(
                    success_trial, self.SWEEP_TRIALS, setup=setup_attack,
                    spec=AesAttackSpec(self.sweep_key(sweep)),
                    seed=derive(self.seed, "sweep", sweep) & 0xFFFFFFFF,
                    workers=self.SWEEP_WORKERS, on_error="collect")
            sweep_times.append(time.perf_counter() - op_started)
            busy = sum(t for t in report.timings if t is not None)
            harness["elapsed_s"] += report.elapsed
            harness["trial_busy_s"] += busy
            harness["overhead_s"] += report.elapsed - busy / report.workers
            harness["failures"] += len(report.failures)
            result.attempted += len(report.values)
            for trial, value in enumerate(report.values):
                if value is None:
                    continue
                leaked += 16
                matched += round(value * 16)
                if value != 1.0:
                    result.fail(f"{op}/trial-{trial}", CheckFailed(
                        f"{round(value * 16)}/16 leaked bytes equal the "
                        f"ground-truth reduced-round ciphertext"))
            for failure in report.failures:
                result.fail(f"{op}/trial-{failure.index}",
                            RuntimeError(failure.error))
            if sweep == 0:
                result.prefix_ops.add(op)
                fingerprint["sweeps"].append({
                    "trials": len(report.values),
                    "values": digest(report.values),
                })
            sweep += 1

        sweep_samples = len(result.speed.samples)
        key_times: List[float] = []
        oracle_totals = {"queries": 0, "retried": 0, "seconds": 0.0}
        index = 0
        while True:
            if ops is not None:
                if index >= ops:
                    break
            elif index >= self.MIN_KEYS:
                elapsed = time.perf_counter() - started
                estimate = statistics.median(key_times) if key_times else 0
                if elapsed + estimate > seconds:
                    break
            op = f"key-{index}"
            if tracer is not None:
                tracer.set_op(op)
            result.attempted += 1
            key = self.key(index)
            op_started = time.perf_counter()
            try:
                with _span(tracer, "aes.key"):
                    attack = AesSpectreAttack(
                        Machine(RAPTOR_LAKE), key,
                        use_read_phr_primitive=True, use_checkpoints=True)
                    attack.profile()
                    attack.leak_checkpoint(1)
                    oracle = TimedOracle(attack, result.speed, tracer)
                    recovered = keyrecovery.recover_key_from_two_round_oracle(
                        oracle, rng=attack.rng.fork(2))
                key_times.append(time.perf_counter() - op_started
                                 - oracle.calibration_s)
                oracle_totals["queries"] += oracle.queries
                oracle_totals["retried"] += oracle.retried
                oracle_totals["seconds"] += oracle.seconds
                if recovered != key:
                    raise CheckFailed(f"recovered key {recovered.hex()} "
                                      f"!= secret {key.hex()}")
            except Exception as exc:
                result.fail(op, exc)
            else:
                if index == 0:
                    result.prefix_ops.add(op)
                    fingerprint["keys"].append({
                        "key": recovered.hex(),
                        "oracle_queries": oracle.queries,
                        "oracle_attempts": oracle.attempts,
                        "perf": _perf_counts(attack.machine),
                        "replay": attack.replay.stats.as_dict(),
                    })
            index += 1

        result.wall_s = time.perf_counter() - started
        result.unscaled = {
            "op_ms": 1000 * statistics.median(key_times)
            if key_times else float("nan"),
            "op_tail_ms": tail_ms(key_times) if key_times else float("nan"),
            "work_per_s": sweep * self.SWEEP_TRIALS / sum(sweep_times),
            "accuracy": matched / leaked if leaked else 0.0,
        }
        # Each phase is scaled by the samples taken during it.
        result.metrics = scaled(result.unscaled,
                                result.speed.scale(sweep_samples),
                                result.speed.scale(0, sweep_samples))
        queries = oracle_totals["queries"]
        result.layers = {
            "aes.oracle.queries": queries,
            "aes.oracle.busy_s": oracle_totals["seconds"],
            "aes.oracle.retry_frac": oracle_totals["retried"] / queries
            if queries else 0.0,
            **{f"harness.{name}": value for name, value in harness.items()},
        }
        fingerprint["digest"] = digest([fingerprint["keys"],
                                        fingerprint["sweeps"]])
        result.fingerprint = fingerprint
        return result


# ----------------------------------------------------------------------
# image-recovery
# ----------------------------------------------------------------------

IMAGE_SIZE = 48
IMAGE_KINDS = {
    "qr_code": lambda seed: images.qr_code(IMAGE_SIZE, seed=seed),
    "captcha": lambda seed: images.captcha(IMAGE_SIZE, seed=seed),
    "photo_like": lambda seed: images.photo_like(IMAGE_SIZE, seed=seed),
    "text_banner": lambda seed: images.text_banner(IMAGE_SIZE, seed=seed),
    "noise": lambda seed: images.noise(IMAGE_SIZE, seed=seed),
}


class ImageRecovery:
    """Paper §8 / Fig 7: rounds of one image of each kind."""

    name = "image-recovery"
    QUALITY = 75

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.codec = JpegCodec(self.QUALITY)

    def setup(self):
        """One image of each kind, each with its own seed; every round of
        the run recovers these same five images."""
        inputs = []
        for kind, generate in IMAGE_KINDS.items():
            pixels = generate(derive(self.seed, "image", kind) & 0x7FFFFFFF)
            inputs.append((kind, pixels, self.codec.encode(pixels)))
        return inputs

    def measure(self, context, seconds: float, ops: Optional[int],
                tracer=None) -> RunResult:
        result = RunResult()
        kinds = len(IMAGE_KINDS)
        per_kind: Dict[str, List[float]] = {kind: [] for kind in IMAGE_KINDS}
        blocks = matched = 0
        fingerprint: Dict[str, Any] = {"images": []}
        started = time.perf_counter()
        deadline = started + seconds
        index = 0
        while True:
            if ops is not None:
                if index >= ops:
                    break
            elif index >= kinds and time.perf_counter() >= deadline:
                break
            op = f"image-{index}"
            kind, pixels, encoded = context[index % kinds]
            if tracer is not None:
                tracer.set_op(op)
            result.attempted += 1
            op_started = time.perf_counter()
            try:
                with _span(tracer, "image"):
                    attack = ImageRecoveryAttack(Machine(RAPTOR_LAKE),
                                                 JpegCodec(self.QUALITY))
                    recovered = attack.recover(encoded)
                per_kind[kind].append(time.perf_counter() - op_started)
                truth = attack.ground_truth_map(pixels)
                if recovered.complexity_map.shape != truth.shape:
                    raise CheckFailed(
                        f"map shape {recovered.complexity_map.shape} != "
                        f"{truth.shape}")
                good = int((recovered.complexity_map == truth).sum())
                blocks += truth.size
                matched += good
                if good != truth.size:
                    raise CheckFailed(f"{kind}: {good}/{truth.size} block "
                                      f"complexities equal the ground truth")
            except Exception as exc:
                result.fail(op, exc)
            else:
                if index < kinds:
                    result.prefix_ops.add(op)
                    fingerprint["images"].append({
                        "kind": kind,
                        "map": digest(recovered.complexity_map),
                        "probes": recovered.probes,
                        "recovered_branches": recovered.recovered_branches,
                        "perf": _perf_counts(attack.machine),
                    })
            index += 1
        result.wall_s = time.perf_counter() - started

        # Kinds differ 3x in cost, so the metrics weigh every kind equally
        # (one image of each kind at its median time), whatever kind the
        # window happened to end on; a run has too few images for a
        # percentile tail, so the tail is the slowest kind.
        medians = [statistics.median(times)
                   for times in per_kind.values() if times]
        blocks_per_image = (IMAGE_SIZE // 8) ** 2
        result.unscaled = {
            "op_ms": 1000 * statistics.mean(medians)
            if medians else float("nan"),
            "op_tail_ms": 1000 * max(medians) if medians else float("nan"),
            "work_per_s": blocks_per_image * len(medians) / sum(medians)
            if medians else 0.0,
            "accuracy": matched / blocks if blocks else 0.0,
        }
        # Not scaled: the calibration loop over-reacts to host speed
        # relative to this workload (a run 1.29x faster than typical saw
        # the loop run 1.7x faster), so scaling widened the spread.
        result.metrics = dict(result.unscaled)
        fingerprint["digest"] = digest(fingerprint["images"])
        result.fingerprint = fingerprint
        return result


# ----------------------------------------------------------------------
# attack-service
# ----------------------------------------------------------------------

PROFILES = {
    "intel-cbp": RAPTOR_LAKE,
    "m1-phr": FIRESTORM_M1,
    "gshare-tournament": TOURNAMENT_BASELINE,
}
#: Read PHR and Read PHT need a path-history register; the tournament's
#: direction-bit history has none, and today such a job fails inside its
#: handler with an AttributeError instead of a ServiceError (a known
#: defect), so the mix never sends them there.
PROFILE_KINDS = {
    "intel-cbp": ("read_phr", "read_pht", "pathfinder_trace",
                  "extended_read", "aes_victim_signatures"),
    "m1-phr": ("read_phr", "read_pht", "pathfinder_trace",
               "extended_read", "aes_victim_signatures"),
    "gshare-tournament": ("pathfinder_trace", "extended_read",
                          "aes_victim_signatures"),
}

#: Profiles whose extended reads probe beyond the history register.  On
#: gshare-tournament a read longer than the register fails inside the
#: handler with ``AttributeError: 'TournamentPredictor' object has no
#: attribute 'tables'`` (the same known defect), so its extended reads
#: use victims whose history fits the register.
EXTENDED_READ_PROBES = ("intel-cbp", "m1-phr")


@dataclass(frozen=True)
class JobSpec:
    """One distinct request of the mix; repeats reuse the same spec."""

    spec_id: int
    kind: str
    profile: str
    params: tuple  # sorted (name, value) pairs


class JobStream:
    """The seeded job mix.

    Every other job repeats one of the 32 most recent distinct jobs
    exactly.  The others walk seeded shuffles of every allowed (profile,
    kind) pair, so each pair's share of the mix is the same at every
    seed and only the parameters vary.
    """

    #: Repeats draw from this many most recent distinct jobs, so the
    #: working set stays within the store's memory tier (64 snapshots)
    #: and the trace cache (256 traces).
    RECENT = 32
    PLAINTEXTS = 16

    def __init__(self, seed: int) -> None:
        self.rng = DeterministicRng(derive(seed, "service-jobs"))
        self.keys = [self.rng.bytes(16) for __ in range(2)]
        self.recent: List[JobSpec] = []
        self.distinct = 0
        self.jobs = 0
        self.pairs: List[tuple] = []

    def next(self) -> JobSpec:
        rng = self.rng
        self.jobs += 1
        if self.jobs % 2 == 0:
            return rng.choice(self.recent)
        if not self.pairs:
            self.pairs = rng.shuffled([(profile, kind)
                                       for profile in sorted(PROFILES)
                                       for kind in PROFILE_KINDS[profile]])
        profile, kind = self.pairs.pop()
        spec = JobSpec(self.distinct, kind, profile,
                       tuple(sorted(self._params(kind, profile).items())))
        self.distinct += 1
        self.recent = (self.recent + [spec])[-self.RECENT:]
        return spec

    def _params(self, kind: str, profile: str) -> Dict[str, Any]:
        rng = self.rng
        if kind in ("read_phr", "read_pht"):
            victim = VictimProgramSpec(shape="counted_loop",
                                       iterations=rng.integer(24, 96))
            if kind == "read_phr":
                return {"victim": victim, "count": rng.integer(2, 6)}
            pc = victim.build().address_of("loop_branch")
            return {"victim": victim, "coordinates": tuple(
                (pc, rng.value_bits(16))
                for __ in range(rng.integer(2, 4)))}
        if kind in ("pathfinder_trace", "extended_read"):
            if kind == "pathfinder_trace":
                count = rng.integer(12, 48)
            elif profile in EXTENDED_READ_PROBES:
                # Two to four more taken branches than the PHR holds, so
                # the reader probes beyond it; longer reads of random
                # victims now and then cost 100x more probes (65k), which
                # would leave the job mix to a few outliers.
                count = PROFILES[profile].phr_capacity + rng.integer(2, 4)
            else:
                count = rng.integer(150, 194)
            return {"victim": VictimProgramSpec(
                shape="branchy", seed=rng.value_bits(count),
                conditional_count=count)}
        return {"key": rng.choice(self.keys),
                "plaintexts": tuple(rng.bytes(16)
                                    for __ in range(self.PLAINTEXTS))}


def job_output(kind: str, value: Dict[str, Any]) -> Any:
    """The part of a job's value that must repeat for an identical job
    (replay and cache statistics legitimately differ)."""
    if kind == "read_phr":
        return {name: value[name]
                for name in ("doublets", "confidence", "iterations")}
    if kind == "aes_victim_signatures":
        return value["signatures"]
    return value


class ServiceContext:
    """A started service with an empty on-disk store and trace cache."""

    def __init__(self, work_dir: Path) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="store-",
                                               dir=work_dir))
        self.service = AttackService(
            store=SnapshotStore(directory=self.directory),
            workers_per_profile=1, trace_cache=TraceCache())
        self.machines = {name: MachineSpec(config=config)
                         for name, config in PROFILES.items()}

    def close(self) -> None:
        self.service.shutdown(drain=True)
        shutil.rmtree(self.directory, ignore_errors=True)


class AttackServiceLoad:
    """A closed loop of seeded jobs against one attack service."""

    name = "attack-service"
    OUTSTANDING = 2
    #: The loop drains every ``DRAIN_EVERY`` jobs to take host-speed
    #: samples with the workers idle.  The first drain ends the
    #: fingerprint prefix, so the store and trace-cache counters cover
    #: exactly the prefix jobs.
    DRAIN_EVERY = 200
    SAMPLES = 5
    JOB_TIMEOUT_S = 60.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> ServiceContext:
        return ServiceContext(self.work_dir)

    def measure(self, context: ServiceContext, seconds: float,
                ops: Optional[int], tracer=None) -> RunResult:
        result = RunResult()
        service = context.service
        stream = JobStream(self.seed)
        prefix = self.DRAIN_EVERY if ops is None \
            else min(self.DRAIN_EVERY, ops)
        drain_at = prefix
        done: "queue.Queue" = queue.Queue()
        outstanding: Dict[int, tuple] = {}
        op_of_params: Dict[int, str] = {}
        first_values: Dict[int, Any] = {}
        signatures: Dict[tuple, Any] = {}
        latencies: List[float] = []
        waits: List[float] = []
        busy = 0.0
        prefix_outputs: List[Any] = []
        prefix_counts: Dict[str, int] = {}
        prefix_stats = None

        if tracer is not None:
            for kind in HANDLERS:
                tracer.wrap(HANDLERS, kind, "service.handler",
                            op=lambda args: op_of_params.get(id(args[1])))

        def wait(handle, index, spec, submitted):
            outcome = handle.result()
            done.put((index, spec, submitted, time.perf_counter(), outcome))

        def submit(index: int) -> None:
            spec = stream.next()
            params = dict(spec.params)
            op_of_params[id(params)] = f"job-{index}"
            job = Job(kind=spec.kind, machine=context.machines[spec.profile],
                      params=params, timeout=self.JOB_TIMEOUT_S,
                      tag=f"job-{index}")
            submitted = time.perf_counter()
            handle = service.submit(job)
            waiter = threading.Thread(target=wait, daemon=True,
                                      args=(handle, index, spec, submitted))
            outstanding[index] = (waiter, params)
            waiter.start()

        result.speed.sample(self.SAMPLES)
        started = time.perf_counter()
        deadline = started + seconds
        index = 0
        last_done = started
        while True:
            if index == drain_at and not outstanding:
                if prefix_stats is None:
                    prefix_stats = service.stats()
                result.speed.sample(self.SAMPLES)
                drain_at += self.DRAIN_EVERY
            while len(outstanding) < self.OUTSTANDING and index < drain_at \
                    and (index < ops if ops is not None
                         else time.perf_counter() < deadline):
                submit(index)
                index += 1
            if not outstanding:
                break
            job_index, spec, submitted, finished, outcome = done.get()
            waiter, params = outstanding.pop(job_index)
            waiter.join()
            del op_of_params[id(params)]
            last_done = finished
            result.attempted += 1
            op = f"job-{job_index}"
            latencies.append(finished - submitted)
            if isinstance(outcome, JobFailure):
                result.fail(op, RuntimeError(
                    f"{spec.kind} on {spec.profile}: {outcome.error}"))
                continue
            busy += outcome.seconds
            waits.append(finished - submitted - outcome.seconds)
            try:
                output = self._check(spec, outcome.value, first_values,
                                     signatures)
            except Exception as exc:
                result.fail(op, exc)
                continue
            if job_index < prefix:
                result.prefix_ops.add(op)
                prefix_outputs.append((job_index, spec.kind, spec.profile,
                                       output))
                _add(prefix_counts, self._counts(spec.kind, outcome.value))
        result.wall_s = time.perf_counter() - started
        result.speed.sample(self.SAMPLES)

        elapsed = last_done - started
        workers = len(PROFILES)
        # The mean, not the median: job kinds form latency clusters from
        # 2 ms to 30 ms and the median fell between two of them, where a
        # 10% slower host moved it by 40%.
        result.unscaled = {
            "op_ms": 1000 * statistics.mean(latencies),
            "op_tail_ms": tail_ms(latencies),
            "work_per_s": (result.attempted - result.failed) / elapsed,
            "accuracy": (result.attempted - result.failed)
            / result.attempted,
        }
        result.metrics = scaled(result.unscaled, result.speed.scale())
        result.layers = {
            "service.latency_p50_ms": 1000 * percentile(latencies, 50),
            "service.pool.queue_wait_p50_ms": 1000 * percentile(waits, 50)
            if waits else 0.0,
            "service.pool.handler_busy_s": busy,
            "service.pool.utilisation": busy / (elapsed * workers),
        }
        prefix_outputs.sort(key=lambda item: item[0])
        store = (prefix_stats or {}).get("store", {})
        traces = (prefix_stats or {}).get("trace_cache", {})
        result.fingerprint = {
            "jobs": len(prefix_outputs),
            "counts": prefix_counts,
            "store": {"hits": store.get("memory_hits", 0)
                      + store.get("disk_hits", 0),
                      "misses": store.get("misses"),
                      "puts": store.get("puts")},
            "trace_cache": {name: traces.get(name)
                            for name in ("hits", "misses", "puts")},
            "digest": digest(prefix_outputs),
        }
        return result

    @staticmethod
    def _check(spec: JobSpec, value: Dict[str, Any],
               first_values: Dict[int, Any],
               signatures: Dict[tuple, Any]) -> Any:
        params = dict(spec.params)
        if spec.kind == "pathfinder_trace":
            flags = [flag for __, flag in value["branch_outcomes"]]
            expected = params["victim"].expected_outcomes()
            if flags != expected:
                raise CheckFailed(f"pathfinder outcomes {flags} != "
                                  f"victim ground truth {expected}")
        elif spec.kind == "extended_read":
            if not value["complete"]:
                raise CheckFailed("extended read left the history incomplete")
        elif spec.kind == "aes_victim_signatures":
            round_keys = expand_key(params["key"])
            for plaintext, signature in zip(params["plaintexts"],
                                            value["signatures"]):
                want = encrypt_block(plaintext, round_keys).hex()
                if signature[0] != want:
                    raise CheckFailed(f"ciphertext {signature[0]} != "
                                      f"reference AES {want}")
                seen = signatures.setdefault(
                    (spec.profile, params["key"], plaintext), signature)
                if seen != signature:
                    raise CheckFailed(f"plaintext {plaintext.hex()} gave "
                                      f"signature {signature}, earlier "
                                      f"{seen}")
        output = job_output(spec.kind, value)
        first = first_values.setdefault(spec.spec_id, output)
        if first != output:
            raise CheckFailed(f"repeat of {spec.kind} job {spec.spec_id} "
                              f"returned {output}, first run {first}")
        return output

    @staticmethod
    def _counts(kind: str, value: Dict[str, Any]) -> Dict[str, int]:
        if kind == "read_phr":
            replay = value["replay"] or {}
            return {f"read_phr.{name}": replay.get(name, 0)
                    for name in ("prefix_runs", "store_hits",
                                 "store_misses")}
        if kind in ("read_pht", "extended_read"):
            return {f"{kind}.probes": value["probes"]}
        if kind == "pathfinder_trace":
            return {"pathfinder.candidates": value["candidates"]}
        return {
            "aes.conditional_branches": sum(s[1]
                                            for s in value["signatures"]),
            "aes.mispredictions": sum(s[2] for s in value["signatures"]),
        }


def workload(name: str, seed: int, work_dir: Path):
    """The workload called ``name`` at ``seed``."""
    if name == AesKeyExtraction.name:
        return AesKeyExtraction(seed)
    if name == ImageRecovery.name:
        return ImageRecovery(seed)
    if name == AttackServiceLoad.name:
        return AttackServiceLoad(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (AesKeyExtraction.name, ImageRecovery.name,
             AttackServiceLoad.name)
