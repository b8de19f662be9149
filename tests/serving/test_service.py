"""The serving front door end to end: equivalence, checkpointing, counters.

Every test runs on ``ShardedMomentService`` at its defaults (one shard,
no WAL), the single-process deployment ``repro serve`` starts.
"""

import numpy as np
import pytest

from repro.core.bmf import BMFEstimator
from repro.core.prior import PriorKnowledge
from repro.exceptions import (
    ConfigError,
    DimensionError,
    SessionNotFoundError,
    SpecificationError,
)
from repro.serving import ShardedMomentService
from repro.stats.multivariate_gaussian import MultivariateGaussian
from repro.yieldest.parametric import gaussian_box_probability

D = 4
KAPPA0 = 2.0
V0 = D + 3.0


@pytest.fixture
def prior(rng) -> PriorKnowledge:
    a = rng.standard_normal((D, D))
    return PriorKnowledge(rng.standard_normal(D), a @ a.T + D * np.eye(D))


@pytest.fixture
def samples(rng) -> np.ndarray:
    return rng.standard_normal((40, D)) @ np.diag([1.0, 0.5, 2.0, 1.5])


@pytest.fixture
def service(prior, samples):
    svc = ShardedMomentService()
    svc.create_session("dut", prior, kappa0=KAPPA0, v0=V0)
    for row in samples:
        svc.ingest("dut", row)
    yield svc
    svc.close()


class TestQueries:
    def test_estimate_matches_one_shot_bmf(self, service, prior, samples):
        estimate = service.estimate("dut")
        reference = BMFEstimator(prior, kappa0=KAPPA0, v0=V0).estimate(samples)
        np.testing.assert_allclose(estimate.mean, reference.mean, atol=1e-10)
        np.testing.assert_allclose(
            estimate.covariance, reference.covariance, atol=1e-10
        )
        assert estimate.n_samples == samples.shape[0]
        assert estimate.method == "bmf"
        assert estimate.info["kappa0"] == KAPPA0

    def test_loglik_matches_scalar_gaussian(self, service, prior, samples):
        value = service.loglik("dut", samples[:10])
        reference = BMFEstimator(prior, kappa0=KAPPA0, v0=V0).estimate(samples)
        gaussian = MultivariateGaussian(reference.mean, reference.covariance)
        assert value == pytest.approx(gaussian.loglik(samples[:10]), abs=1e-8)

    def test_yield_matches_scalar_box_probability(self, service, prior, samples):
        lower, upper = np.full(D, -3.0), np.full(D, 3.0)
        value = service.yield_prob("dut", lower, upper)
        reference = BMFEstimator(prior, kappa0=KAPPA0, v0=V0).estimate(samples)
        expected = gaussian_box_probability(
            reference.mean, reference.covariance, lower, upper
        )
        assert value == pytest.approx(expected, abs=1e-6)

    def test_query_many_mixed_kinds(self, service, samples):
        lower, upper = np.full(D, -2.0), np.full(D, 2.0)
        results = service.query_many(
            [
                ("estimate", "dut", None),
                ("loglik", "dut", samples[:5]),
                ("yield", "dut", (lower, upper)),
            ]
        )
        assert results[0].dim == D
        assert np.isfinite(results[1])
        assert 0.0 <= results[2] <= 1.0

    def test_sync_and_batched_paths_agree(self, service, samples):
        """Single-query helpers and one mixed query_many batch run the
        same scoring code: identical bits."""
        single_est = service.estimate("dut")
        single_ll = service.loglik("dut", samples[:7])
        batch_est, batch_ll = service.query_many(
            [("estimate", "dut", None), ("loglik", "dut", samples[:7])]
        )
        assert np.array_equal(single_est.mean, batch_est.mean)
        assert np.array_equal(single_est.covariance, batch_est.covariance)
        assert single_ll == batch_ll

    def test_empty_session_returns_prior_mode(self, service, prior):
        service.create_session("fresh", prior, kappa0=KAPPA0, v0=V0)
        estimate = service.estimate("fresh")
        np.testing.assert_allclose(estimate.mean, prior.mean, atol=1e-12)
        assert estimate.n_samples == 0


class TestErrors:
    def test_unknown_session(self, service):
        with pytest.raises(SessionNotFoundError):
            service.estimate("ghost")

    def test_bad_loglik_payload(self, service):
        with pytest.raises(DimensionError):
            service.loglik("dut", np.zeros((3, D + 1)))
        with pytest.raises(DimensionError):
            service.loglik("dut", np.zeros((0, D)))

    def test_bad_yield_bounds(self, service):
        with pytest.raises(SpecificationError):
            service.yield_prob("dut", np.zeros(D), np.zeros(D))
        with pytest.raises(SpecificationError):
            service.yield_prob("dut", np.zeros(D - 1), np.ones(D - 1))

    def test_error_does_not_poison_the_batch(self, service, samples):
        """One bad request in a batch fails alone: the others are scored,
        and query_many raises the failure."""
        with pytest.raises(SessionNotFoundError):
            service.query_many(
                [
                    ("estimate", "dut", None),
                    ("estimate", "ghost", None),
                    ("loglik", "dut", samples[:3]),
                ]
            )
        stats = service.stats()
        assert stats["errors"] == 1
        assert stats["latency_samples"] == 2

    def test_unknown_kind_in_query_many(self, service):
        with pytest.raises(ConfigError):
            service.query_many([("divine", "dut", None)])


class TestCheckpointRestore:
    def test_save_kill_restore_identical(self, service, tmp_path, samples):
        """The acceptance criterion: restore is bit-identical."""
        before = service.estimate("dut")
        path = tmp_path / "service.ckpt"
        service.checkpoint(path)
        service.close()  # "kill" the process's service

        restored = ShardedMomentService.restore(path)
        after = restored.query_many([("estimate", "dut", None)])[0]
        assert np.array_equal(after.mean, before.mean)
        assert np.array_equal(after.covariance, before.covariance)
        # counters carried over
        assert restored.stats()["ingest_calls"] == samples.shape[0]

    def test_restore_continues_streaming_identically(
        self, prior, samples, tmp_path
    ):
        """Checkpoint mid-stream, keep ingesting on both sides: identical."""
        straight = ShardedMomentService()
        straight.create_session("dut", prior, kappa0=KAPPA0, v0=V0)
        for row in samples:
            straight.ingest("dut", row)

        interrupted = ShardedMomentService()
        interrupted.create_session("dut", prior, kappa0=KAPPA0, v0=V0)
        for row in samples[:17]:
            interrupted.ingest("dut", row)
        path = tmp_path / "mid.ckpt"
        interrupted.checkpoint(path)
        resumed = ShardedMomentService.restore(path)
        for row in samples[17:]:
            resumed.ingest("dut", row)

        a = straight.query_many([("estimate", "dut", None)])[0]
        b = resumed.query_many([("estimate", "dut", None)])[0]
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.covariance, b.covariance)

    def test_restore_rejects_foreign_state_version(self, service, tmp_path):
        from repro.serving.checkpoint import load_checkpoint, save_checkpoint

        path = tmp_path / "service.ckpt"
        service.checkpoint(path)
        state = load_checkpoint(path)
        state["state_version"] = 99
        save_checkpoint(state, path)
        with pytest.raises(ConfigError, match="state_version"):
            ShardedMomentService.restore(path)


class TestCountersAndStats:
    def test_stats_shape(self, service, samples):
        service.estimate("dut")
        service.loglik("dut", samples[:4])
        stats = service.stats()
        assert stats["requests"]["estimate"] >= 1
        assert stats["requests"]["loglik"] >= 1
        assert stats["ingested_samples"] == samples.shape[0]
        assert stats["sessions_live"] == 1
        assert stats["latency_ms_p50"] is not None
        assert stats["latency_ms_p99"] >= stats["latency_ms_p50"]
        assert stats["n_shards"] == 1

    def test_close_is_idempotent(self, prior):
        service = ShardedMomentService()
        service.close()
        service.close()

    def test_context_manager(self, prior, tmp_path):
        with ShardedMomentService(wal_dir=tmp_path / "wal") as service:
            service.create_session("a", prior, kappa0=KAPPA0, v0=V0)
        # leaving the block drained the group-commit buffer and closed
        # the shard log
        recovered = ShardedMomentService.recover(tmp_path / "wal")
        assert recovered.session_keys() == ["a"]
        recovered.close()
