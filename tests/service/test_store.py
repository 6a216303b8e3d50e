"""ContractStore: key-addressed persistence plus pipeline integration."""

import pytest

from repro.campaign import CampaignCell, CellOutcome
from repro.contracts.riscv_template import TEMPLATE_REGISTRY
from repro.contracts.template import template_digest
from repro.pipeline import SynthesisPipeline
from repro.service.store import ContractStore, ContractStoreKeyError

pytestmark = pytest.mark.service

_DIGEST = template_digest(TEMPLATE_REGISTRY.create("riscv-rv32im"))


def _cell(**overrides):
    defaults = dict(
        core="ibex",
        attacker="retirement-timing",
        template="riscv-rv32im",
        restriction=None,
        solver="greedy",
        budget=10,
        seed=0,
        verify=0,
    )
    defaults.update(overrides)
    return CampaignCell(**defaults)


def _outcome(cell, atom_ids=(1, 2, 3), digest=_DIGEST):
    return CellOutcome(
        cell=cell,
        atom_ids=tuple(atom_ids),
        false_positives=0,
        test_cases=cell.budget,
        distinguishable=4,
        optimal=True,
        solver_name=cell.solver,
        satisfied=None,
        timings={"total": 0.5},
        cache_hit=False,
        dataset_reused=False,
        template_digest=digest,
    )


class TestStore:
    def test_put_get_and_persistence(self, tmp_path):
        store = ContractStore(str(tmp_path / "store"))
        cell = _cell()
        assert store.get(cell) is None
        assert store.put(_outcome(cell))
        assert store.get(cell).atom_ids == (1, 2, 3)

        # A fresh handle on the same directory sees the contract, and
        # loaded outcomes are marked as served from the store.
        reopened = ContractStore(str(tmp_path / "store"))
        assert len(reopened) == 1
        assert reopened.get(cell).resumed

    def test_first_write_wins(self, tmp_path):
        store = ContractStore(str(tmp_path / "store"))
        cell = _cell()
        assert store.put(_outcome(cell, atom_ids=(1,)))
        assert not store.put(_outcome(cell, atom_ids=(9, 9)))
        assert store.get(cell).atom_ids == (1,)

    def test_keyed_by_full_cell_identity(self, tmp_path):
        store = ContractStore(str(tmp_path / "store"))
        store.put(_outcome(_cell(budget=10)))
        assert store.get(_cell(budget=10)) is not None
        assert store.get(_cell(budget=20)) is None
        assert store.get(_cell(seed=1)) is None
        assert store.get(_cell(solver="scipy-milp")) is None

    def test_stale_template_digest_misses(self, tmp_path):
        store = ContractStore(str(tmp_path / "store"))
        cell = _cell()
        store.put(_outcome(cell, digest="0" * 40))
        # The registered riscv-rv32im template no longer matches the
        # digest the outcome was computed under: serving it would hand
        # back a contract over different atoms.
        assert store.get(cell) is None

    def test_reload_sees_other_writers(self, tmp_path):
        store = ContractStore(str(tmp_path / "store"))
        other = ContractStore(str(tmp_path / "store"))
        other.put(_outcome(_cell()))
        assert store.get(_cell()) is None  # stale in-memory view
        store.reload()
        assert store.get(_cell()) is not None

    def test_foreign_file_raises_key_error(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "contracts.jsonl").write_text(
            '{"manifest": "contract-store", "version": 1, "key": {"store": "x"}}\n'
        )
        with pytest.raises(ContractStoreKeyError):
            ContractStore(str(root))


class TestPipelineIntegration:
    def test_pipeline_store_persists_result_and_dataset(self, tmp_path):
        store = ContractStore(str(tmp_path / "store"))
        result = (
            SynthesisPipeline()
            .budget(30, seed=2)
            .solver("greedy")
            .store(store)
            .run()
        )
        cell = _cell(budget=30, seed=2, verify=None)
        stored = store.get(cell)
        assert stored is not None
        assert stored.atom_ids == tuple(
            sorted(atom.atom_id for atom in result.contract.atoms)
        )
        # The store's cache directory doubles as the dataset cache.
        import os

        assert os.listdir(store.datasets_dir)

    def test_store_records_a_run_served_from_the_dataset_cache(self, tmp_path):
        """``dataset_reused`` is the run's own cache hit, on the store
        path as on a campaign cell."""
        first = ContractStore(str(tmp_path / "first"))
        SynthesisPipeline().budget(30, seed=2).solver("greedy").store(first).run()
        cell = _cell(budget=30, seed=2, verify=None)
        assert not first.get(cell).dataset_reused

        second = ContractStore(str(tmp_path / "second"))
        result = (
            SynthesisPipeline()
            .budget(30, seed=2)
            .solver("greedy")
            .cache_dir(first.datasets_dir)
            .store(second)
            .run()
        )
        assert result.timings.cache_hit
        assert second.get(cell).dataset_reused
        assert ContractStore(str(tmp_path / "second")).get(cell).dataset_reused

    def test_store_requires_name_addressed_plugins(self, tmp_path):
        from repro.uarch.ibex import IbexCore

        store = ContractStore(str(tmp_path / "store"))
        pipeline = SynthesisPipeline().budget(10).core(IbexCore()).store(store)
        with pytest.raises(ValueError, match="registry name"):
            pipeline.run()

    def test_cell_with_retries_finds_the_contract_its_pipeline_stored(self, tmp_path):
        """Retry and timeout settings never change a result: a cell run
        with retries finds its contract, and so do its fault-free and
        differently fault-tolerant forms, before and after a reload."""
        store = ContractStore(str(tmp_path / "store"))
        cell = _cell(budget=30, seed=2, retries=2)
        result = cell.pipeline().store(store).run()
        atom_ids = tuple(sorted(result.contract.atom_ids))
        assert store.get(cell).atom_ids == atom_ids
        assert len(store) == 1
        store.reload()
        lookups = (
            cell,
            _cell(budget=30, seed=2),
            _cell(budget=30, seed=2, retries=1, shard_timeout=5.0),
        )
        for lookup in lookups:
            assert store.get(lookup).atom_ids == atom_ids
        assert set(store.get_all([cell])) == {cell.key()}
        # First write wins across fault-tolerance settings too.
        assert not store.put(_outcome(_cell(budget=30, seed=2, retries=5)))
