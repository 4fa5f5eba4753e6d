"""Tests for retention policies."""

import pytest

from repro.core import DedupConfig, MHDDeduplicator
from repro.storage import (
    DiskModel,
    RetentionPolicy,
    apply_retention,
    default_generation_of,
    plan_retention,
    verify_store,
)
from repro.workloads import tiny_corpus


class TestGenerationExtraction:
    def test_standard_ids(self):
        assert default_generation_of("pc03/gen007/user/file.bin") == 7
        assert default_generation_of("pc00/gen000/os0/file0001") == 0

    def test_no_generation(self):
        assert default_generation_of("some/other/path") is None

    def test_gen_component_must_be_delimited(self):
        assert default_generation_of("xgen5/file") is None
        assert default_generation_of("a/gen12") == 12


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetentionPolicy(keep_last=0)
        with pytest.raises(ValueError):
            RetentionPolicy(keep_every=-1)

    def test_keep_last(self):
        p = RetentionPolicy(keep_last=2)
        assert p.kept_generations([0, 1, 2, 3]) == {2, 3}

    def test_keep_every_adds_grandfathers(self):
        p = RetentionPolicy(keep_last=2, keep_every=3)
        assert p.kept_generations(list(range(8))) == {0, 3, 6, 7}

    def test_fewer_generations_than_keep_last(self):
        p = RetentionPolicy(keep_last=10)
        assert p.kept_generations([0, 1]) == {0, 1}

    def test_empty(self):
        assert RetentionPolicy().kept_generations([]) == set()


class TestPlan:
    def test_plan_expires_old_generations(self):
        ids = [f"pc00/gen{g:03d}/f" for g in range(5)]
        victims = plan_retention(ids, RetentionPolicy(keep_last=2))
        assert victims == [f"pc00/gen{g:03d}/f" for g in range(3)]

    def test_plan_never_touches_ungenerationed_ids(self):
        ids = ["manual-backup.img", "pc00/gen000/f", "pc00/gen001/f"]
        victims = plan_retention(ids, RetentionPolicy(keep_last=1))
        assert "manual-backup.img" not in victims

    def test_custom_extractor(self):
        ids = ["day-1", "day-2", "day-3"]
        victims = plan_retention(
            ids,
            RetentionPolicy(keep_last=1),
            generation_of=lambda s: int(s.split("-")[1]),
        )
        assert victims == ["day-1", "day-2"]


class TestApply:
    def test_apply_reclaims_and_preserves_survivors(self):
        files = tiny_corpus().files()
        d = MHDDeduplicator(DedupConfig(ecs=1024, sd=8))
        d.process(files)
        ids = [f.file_id for f in files]
        stored_before = d.store.usage(DiskModel.CHUNK).nbytes

        expired, report = apply_retention(
            d.backend, ids, RetentionPolicy(keep_last=1)
        )
        assert expired
        assert all("gen002" not in f for f in expired)  # newest gen kept
        assert report.bytes_reclaimed > 0
        assert d.store.usage(DiskModel.CHUNK).nbytes < stored_before
        # all surviving files restore exactly; store verifies clean
        for f in files:
            if f.file_id not in expired:
                assert d.restore(f.file_id) == f.data
        assert verify_store(d.backend, check_entry_hashes=True).ok


def test_keep_every_alone():
    p = RetentionPolicy(keep_last=1, keep_every=2)
    assert p.kept_generations([0, 1, 2, 3, 4, 5]) == {0, 2, 4, 5}
