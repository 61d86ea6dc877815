"""The attack service: jobs, worker pool, lifecycle, and store sharing.

End-to-end coverage of :mod:`repro.service`: every fast job kind runs
through a real pool against a real machine; the async lifecycle
(timeouts, retries, drain) is driven with deliberately slow victims;
and the store-integration tests pin the layer's core promise -- warm
requests are served from shared checkpoints *and* stay bit-identical
to cold ones.
"""

from __future__ import annotations

import time

import numpy
import pytest

from repro.cpu import Machine, RAPTOR_LAKE, SKYLAKE
from repro.cpu.config import MachineConfig, TOURNAMENT_BASELINE
from repro.service import (
    AttackService,
    HANDLERS,
    Job,
    JobFailure,
    JobResult,
    MachineSpec,
    ServiceClient,
    ServiceError,
    SnapshotStore,
    VictimProgramSpec,
    job_kinds,
)
from repro.service.jobs import _victim_handle

#: A victim heavy enough (~0.5s) to keep a worker visibly busy.
SLOW_VICTIM = VictimProgramSpec(shape="counted_loop", iterations=50_000)
#: The everyday fast victim.
FAST_VICTIM = VictimProgramSpec(shape="counted_loop", iterations=24)
BRANCHY = VictimProgramSpec(shape="branchy", seed=0b1011_0110_1001,
                            conditional_count=12)


@pytest.fixture
def service():
    svc = AttackService(store=SnapshotStore(), workers_per_profile=1)
    yield svc
    svc.shutdown(drain=True)


@pytest.fixture
def client(service):
    return ServiceClient(service)


# ----------------------------------------------------------------------
# request specs
# ----------------------------------------------------------------------

class TestSpecs:
    def test_machine_spec_digest_separates_profiles(self):
        assert MachineSpec().digest() == MachineSpec(SKYLAKE).digest()
        assert (MachineSpec(SKYLAKE).digest()
                != MachineSpec(RAPTOR_LAKE).digest())

    def test_machine_spec_builds_the_profile(self):
        machine = MachineSpec(RAPTOR_LAKE).build()
        assert isinstance(machine, Machine)
        assert machine.config is RAPTOR_LAKE

    def test_counted_loop_victim_builds(self):
        program = FAST_VICTIM.build()
        assert program.entry == FAST_VICTIM.base
        assert "loop" in program.labels

    def test_branchy_victim_ground_truth(self):
        expected = BRANCHY.expected_outcomes()
        assert len(expected) == BRANCHY.conditional_count
        assert expected[0] is True  # bit 0 of 0b...1001
        assert expected[1] is False

    def test_expected_outcomes_only_for_branchy(self):
        with pytest.raises(ServiceError, match="branchy"):
            FAST_VICTIM.expected_outcomes()

    def test_unknown_shape_rejected(self):
        with pytest.raises(ServiceError, match="unknown victim shape"):
            VictimProgramSpec(shape="spaghetti").build()

    def test_victim_digest_is_a_content_identity(self):
        assert FAST_VICTIM.digest() == VictimProgramSpec(
            shape="counted_loop", iterations=24).digest()
        assert FAST_VICTIM.digest() != SLOW_VICTIM.digest()


class TestJobValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown job kind"):
            Job(kind="astrology")

    def test_kinds_enumerated(self):
        kinds = job_kinds()
        assert kinds == tuple(sorted(HANDLERS))
        assert "read_phr" in kinds and "aes_key_recovery" in kinds
        assert "aes_victim_signatures" in kinds
        assert len(kinds) == 8

    def test_retry_budget_validated(self):
        with pytest.raises(ServiceError, match="retry budget"):
            Job(kind="read_phr", retry_budget=0)

    def test_timeout_validated(self):
        with pytest.raises(ServiceError, match="timeout"):
            Job(kind="read_phr", timeout=0.0)


    @pytest.mark.parametrize("victim", [FAST_VICTIM, BRANCHY])
    def test_taken_branches_matches_a_run(self, victim):
        recorded = _victim_handle(Machine(SKYLAKE), victim).profile()
        assert victim.taken_branches() == sum(b.taken for b in recorded)


class TestFamilySupport:
    """gshare-tournament has no doublet PHR or tagged PHT tables: jobs
    that need them are refused at submit, naming family and kind."""

    GSHARE = MachineSpec(TOURNAMENT_BASELINE)

    def refused(self, service, kind, machine=GSHARE, **params):
        with pytest.raises(ServiceError) as caught:
            ServiceClient(service).submit(kind, machine=machine, **params)
        assert "'gshare-tournament'" in str(caught.value)
        assert repr(kind) in str(caught.value)
        assert service.jobs_submitted == 0
        return str(caught.value)

    def test_read_phr_refused(self, service):
        self.refused(service, "read_phr", victim=FAST_VICTIM, count=4)

    def test_read_pht_refused(self, service):
        pc = FAST_VICTIM.build().labels["loop_branch"]
        self.refused(service, "read_pht", victim=FAST_VICTIM,
                     coordinates=[(pc, 0)])

    def test_extended_read_beyond_register_refused(self, service):
        long_victim = VictimProgramSpec(
            shape="branchy", conditional_count=TOURNAMENT_BASELINE
            .phr_capacity + 2)
        message = self.refused(service, "extended_read", victim=long_victim)
        assert "longer than its register" in message

    def test_family_override_refused(self, service):
        self.refused(service, "read_phr",
                     machine=MachineSpec(SKYLAKE,
                                         predictor_model="gshare-tournament"),
                     victim=FAST_VICTIM)

    def test_extended_read_within_register_served(self, client):
        handle = client.submit("extended_read", machine=self.GSHARE,
                               victim=BRANCHY)
        value = client.gather([handle], on_error="raise")[0].value
        assert value["complete"] is True
        assert value["probes"] == 0


# ----------------------------------------------------------------------
# job kinds, end to end
# ----------------------------------------------------------------------

class TestJobKinds:
    def test_read_phr(self, client):
        handle = client.submit("read_phr", victim=FAST_VICTIM, count=3,
                               tag="t1")
        outcome = client.gather([handle], on_error="raise")[0]
        assert isinstance(outcome, JobResult)
        assert outcome.tag == "t1"
        assert outcome.kind == "read_phr"
        assert outcome.attempts == 1
        assert outcome.seconds > 0
        assert len(outcome.value["doublets"]) == 3
        assert outcome.value["replay"]["suffix_runs"] > 0

    def test_read_phr_is_deterministic(self, client):
        handles = [client.submit("read_phr", victim=FAST_VICTIM, count=2)
                   for __ in range(2)]
        first, second = client.gather(handles, on_error="raise")
        assert first.value["doublets"] == second.value["doublets"]

    def test_extended_read(self, client):
        handle = client.submit("extended_read", victim=BRANCHY, rounds=4)
        outcome = client.gather([handle], on_error="raise")[0]
        value = outcome.value
        assert value["history_length"] > 0
        assert len(value["doublets"]) >= value["history_length"]
        assert value["complete"] is True
        assert value["probes"] >= 0

    def test_pathfinder_trace_recovers_ground_truth(self, client):
        handle = client.submit("pathfinder_trace", victim=BRANCHY)
        outcome = client.gather([handle], on_error="raise")[0]
        recovered = [flag for __, flag in outcome.value["branch_outcomes"]]
        assert recovered == BRANCHY.expected_outcomes()
        assert outcome.value["candidates"] >= 1

    def test_read_pht(self, client):
        program = FAST_VICTIM.build()
        pc = program.labels["loop_branch"]
        handle = client.submit(
            "read_pht", victim=FAST_VICTIM,
            coordinates=[(pc, 0), (pc, 1)])
        outcome = client.gather([handle], on_error="raise")[0]
        assert len(outcome.value["mispredictions"]) == 2
        assert outcome.value["probes"] > 0

    def test_write_pht(self, client):
        handle = client.submit("write_pht", pc=0x40_1000,
                               phr_value=0b1011, taken=True)
        outcome = client.gather([handle], on_error="raise")[0]
        assert outcome.value["planted"] is True
        assert outcome.value["predicted_taken"] is True

    def test_image_recovery(self, client):
        from repro.jpeg.codec import JpegCodec
        image = (numpy.arange(64, dtype=float).reshape(8, 8) * 3) % 256
        encoded = JpegCodec(75).encode(image)
        handle = client.submit("image_recovery", encoded=encoded)
        outcome = client.gather([handle], on_error="raise")[0]
        assert outcome.value["recovered_branches"] > 0
        assert numpy.asarray(outcome.value["complexity_map"]).shape == (1, 1)

    def test_missing_required_parameter_fails(self, client):
        handle = client.submit("read_phr")  # no victim
        outcome = client.gather([handle])[0]
        assert isinstance(outcome, JobFailure)
        assert "victim" in outcome.error


# ----------------------------------------------------------------------
# async lifecycle: timeouts, retries, gather, shutdown
# ----------------------------------------------------------------------

class TestTimeouts:
    def test_running_job_times_out(self, client):
        handle = client.submit("read_phr", victim=SLOW_VICTIM,
                               timeout=0.05)
        outcome = handle.result()
        assert isinstance(outcome, JobFailure)
        assert outcome.error.startswith("TimeoutError")
        assert handle.done()

    def test_queued_job_expires_without_running(self, client):
        blocker = client.submit("read_phr", victim=SLOW_VICTIM)
        queued = client.submit("read_phr", victim=FAST_VICTIM,
                               timeout=0.05)
        outcome = queued.result()
        assert isinstance(outcome, JobFailure)
        assert outcome.error.startswith("TimeoutError")
        # The worker never ran the expired job -- it has no timing.
        assert outcome.seconds == 0.0
        assert isinstance(blocker.result(), JobResult)

    def test_caller_timeout_leaves_handle_valid(self, client):
        handle = client.submit("read_phr", victim=SLOW_VICTIM)
        with pytest.raises(ServiceError, match="still"):
            handle.result(timeout=0.02)
        # No job deadline: the handle is still in flight and usable.
        outcome = handle.result()
        assert isinstance(outcome, JobResult)

    def test_gather_timeout_is_a_total_budget(self, client):
        handles = [client.submit("read_phr", victim=SLOW_VICTIM)
                   for __ in range(2)]
        with pytest.raises(ServiceError):
            client.gather(handles, timeout=0.02)
        assert all(isinstance(h.result(), JobResult) for h in handles)


class TestRetries:
    def test_retry_budget_recovers_from_flaky_handlers(self, client,
                                                       monkeypatch):
        attempts = []

        def flaky(ctx, params):
            attempts.append(ctx.name)
            if len(attempts) < 3:
                raise ValueError(f"flake #{len(attempts)}")
            return {"ok": True}

        monkeypatch.setitem(HANDLERS, "flaky", flaky)
        handle = client.submit("flaky", retry_budget=3)
        outcome = client.gather([handle], on_error="raise")[0]
        assert isinstance(outcome, JobResult)
        assert outcome.attempts == 3
        assert len(attempts) == 3

    def test_exhausted_budget_reports_the_failure(self, client,
                                                  monkeypatch):
        def doomed(ctx, params):
            raise ValueError("always broken")

        monkeypatch.setitem(HANDLERS, "doomed", doomed)
        handle = client.submit("doomed", retry_budget=2)
        outcome = client.gather([handle])[0]
        assert isinstance(outcome, JobFailure)
        assert outcome.attempts == 2
        assert outcome.error == "ValueError: always broken"
        assert "always broken" in outcome.traceback
        assert outcome.worker is not None

    def test_default_budget_is_single_shot(self, client, monkeypatch):
        calls = []

        def once(ctx, params):
            calls.append(1)
            raise ValueError("no")

        monkeypatch.setitem(HANDLERS, "once", once)
        outcome = client.gather([client.submit("once")])[0]
        assert isinstance(outcome, JobFailure)
        assert calls == [1]


class TestGather:
    def test_collect_keeps_order_and_failures_in_place(self, client):
        good = client.submit("read_phr", victim=FAST_VICTIM, count=1)
        bad = client.submit("read_phr")  # missing victim
        outcomes = client.gather([good, bad])
        assert isinstance(outcomes[0], JobResult)
        assert isinstance(outcomes[1], JobFailure)

    def test_raise_mode_raises_on_first_failure(self, client):
        bad = client.submit("read_phr")
        with pytest.raises(ServiceError, match="read_phr"):
            client.gather([bad], on_error="raise")

    def test_unknown_on_error_rejected(self, client):
        with pytest.raises(ServiceError, match="on_error"):
            client.gather([], on_error="explode")


class TestLifecycle:
    def test_drain_true_finishes_queued_jobs(self):
        service = AttackService(workers_per_profile=1)
        client = ServiceClient(service)
        handles = [client.submit("read_phr", victim=FAST_VICTIM, count=1)
                   for __ in range(4)]
        service.shutdown(drain=True)
        outcomes = [h.result() for h in handles]
        assert all(isinstance(o, JobResult) for o in outcomes)
        assert service.stats()["jobs_completed"] == 4

    def test_drain_false_cancels_pending_keeps_running(self):
        service = AttackService(workers_per_profile=1)
        client = ServiceClient(service)
        running = client.submit("read_phr", victim=SLOW_VICTIM)
        deadline = time.monotonic() + 10.0
        while running.state != "running":
            assert time.monotonic() < deadline, "job never claimed"
            time.sleep(0.002)
        pending = [client.submit("read_phr", victim=FAST_VICTIM)
                   for __ in range(3)]
        service.shutdown(drain=False)
        outcome = running.result()
        assert isinstance(outcome, JobResult)  # in-flight work finished
        for handle in pending:
            cancelled = handle.result()
            assert isinstance(cancelled, JobFailure)
            assert cancelled.error.startswith("CancelledError")

    def test_submit_after_shutdown_raises(self):
        service = AttackService()
        service.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            ServiceClient(service).submit("read_phr", victim=FAST_VICTIM)

    def test_shutdown_is_idempotent(self):
        service = AttackService()
        service.shutdown()
        service.shutdown()

    def test_context_manager_drains(self):
        with AttackService(workers_per_profile=1) as service:
            handle = ServiceClient(service).submit(
                "read_phr", victim=FAST_VICTIM, count=1)
        assert isinstance(handle.result(), JobResult)


class TestSharding:
    def test_equal_specs_share_one_shard(self, client, service):
        handles = [
            client.submit("read_phr", machine=MachineSpec(SKYLAKE),
                          victim=FAST_VICTIM, count=1),
            client.submit("read_phr", machine=MachineSpec(SKYLAKE),
                          victim=FAST_VICTIM, count=1),
        ]
        client.gather(handles, on_error="raise")
        stats = service.stats()
        assert stats["shards"] == 1
        assert stats["workers"] == 1
        assert stats["jobs_submitted"] == 2
        assert stats["jobs_completed"] == 2

    def test_distinct_profiles_get_distinct_shards(self, client, service):
        client.gather([
            client.submit("read_phr", machine=MachineSpec(SKYLAKE),
                          victim=FAST_VICTIM, count=1),
            client.submit("read_phr", machine=MachineSpec(RAPTOR_LAKE),
                          victim=FAST_VICTIM, count=1),
        ], on_error="raise")
        assert service.stats()["shards"] == 2
        assert set(service.queue_depths()) == {
            MachineSpec(SKYLAKE).digest(), MachineSpec(RAPTOR_LAKE).digest()}

    def test_max_profiles_guard(self):
        with AttackService(max_profiles=1) as service:
            client = ServiceClient(service)
            client.gather([client.submit(
                "read_phr", machine=MachineSpec(SKYLAKE),
                victim=FAST_VICTIM, count=1)], on_error="raise")
            with pytest.raises(ServiceError, match="profile limit"):
                client.submit("read_phr", machine=MachineSpec(RAPTOR_LAKE),
                              victim=FAST_VICTIM, count=1)

    def test_worker_configuration_validated(self):
        with pytest.raises(ServiceError):
            AttackService(workers_per_profile=0)
        with pytest.raises(ServiceError):
            AttackService(max_profiles=0)


# ----------------------------------------------------------------------
# store integration: the warm path is free and bit-identical
# ----------------------------------------------------------------------

class TestStoreIntegration:
    def test_second_job_served_from_store(self, client, service):
        cold = client.gather(
            [client.submit("read_phr", victim=FAST_VICTIM, count=2)],
            on_error="raise")[0]
        warm = client.gather(
            [client.submit("read_phr", victim=FAST_VICTIM, count=2)],
            on_error="raise")[0]
        assert warm.value["doublets"] == cold.value["doublets"]
        assert warm.value["replay"]["prefix_runs"] == 0
        assert warm.value["replay"]["store_hits"] >= 1
        assert service.stats()["store"]["hit_rate"] > 0.0

    def test_storeless_service_reports_no_store_stats(self):
        with AttackService() as service:
            assert "store" not in service.stats()

    def test_phr_reader_default_scope_needs_setupless_victim(self):
        from repro.primitives import PhrReader, VictimHandle
        machine = Machine(SKYLAKE)
        victim = VictimHandle(machine, FAST_VICTIM.build(),
                              setup=lambda state, memory: None)
        with pytest.raises(ValueError, match="setup hook"):
            PhrReader(machine, victim, store=SnapshotStore())

    def test_phr_reader_rejects_store_under_inline(self):
        from repro.primitives import PhrReader, VictimHandle
        machine = Machine(SKYLAKE)
        victim = VictimHandle(machine, FAST_VICTIM.build())
        with pytest.raises(ValueError, match="inline"):
            PhrReader(machine, victim, reuse="inline",
                      store=SnapshotStore())

    def test_read_batch_requires_explicit_scope(self):
        from repro.primitives import PhtReader
        machine = Machine(SKYLAKE)
        with pytest.raises(ValueError, match="content address"):
            PhtReader(machine).read_batch(
                [(0x40_1000, 0)], lambda: None, store=SnapshotStore())

    def test_aes_leak_checkpoint_warm_path(self):
        from repro.aes.attack import AesSpectreAttack
        key = bytes(range(16))
        store = SnapshotStore()
        cold_machine = Machine(SKYLAKE)
        cold = AesSpectreAttack(cold_machine, key, store=store)
        cold_snapshot = cold.leak_checkpoint(2)
        assert store.stats.puts == 1

        warm_machine = Machine(SKYLAKE)
        warm = AesSpectreAttack(warm_machine, key, store=store)
        warm_snapshot = warm.leak_checkpoint(2)
        assert store.stats.hits == 1
        assert warm_snapshot == cold_snapshot  # bit-identical state
        # The Python-side profiling context traveled in the meta.
        assert warm._iteration_phr == cold._iteration_phr
        assert warm._last_poisoned_phr == cold._last_poisoned_phr

    def test_aes_different_keys_never_share(self):
        from repro.aes.attack import AesSpectreAttack
        store = SnapshotStore()
        AesSpectreAttack(Machine(SKYLAKE), bytes(range(16)),
                         store=store).leak_checkpoint(2)
        AesSpectreAttack(Machine(SKYLAKE), bytes(range(1, 17)),
                         store=store).leak_checkpoint(2)
        assert store.stats.hits == 0
        assert store.stats.puts == 2

    def test_image_recovery_warm_path(self):
        from repro.jpeg.codec import JpegCodec
        from repro.jpeg.recovery import ImageRecoveryAttack
        image = (numpy.arange(64, dtype=float).reshape(8, 8) * 5) % 256
        encoded = JpegCodec(75).encode(image)
        store = SnapshotStore()

        cold = ImageRecoveryAttack(Machine(SKYLAKE), store=store)
        cold_result = cold.recover(encoded)
        spills_after_cold = store.stats.puts
        assert spills_after_cold >= 1

        warm = ImageRecoveryAttack(Machine(SKYLAKE), store=store)
        warm_result = warm.recover(encoded)
        assert store.stats.hits >= 1
        assert numpy.array_equal(warm_result.complexity_map,
                                 cold_result.complexity_map)
        assert (warm_result.recovered_branches
                == cold_result.recovered_branches)
