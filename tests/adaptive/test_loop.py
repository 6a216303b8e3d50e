"""End-to-end tests for the adaptive synthesis loop.

The pinned scenario is ibex-dcache under the cache-state attacker on
the ``riscv-mem`` template (loads/stores only): its contract saturates
within a few hundred test cases, so the fixed-budget reference is
byte-stable and the adaptive loop must land on exactly the same
contract from measurably fewer evaluated cases.
"""

import pytest

from repro.adaptive import (
    STOPPING_REGISTRY,
    AdaptiveLoop,
    AdaptiveState,
    BudgetRule,
    ContractStableRule,
    FullCoverageRule,
    resolve_stopping_rules,
)
from repro.pipeline import SynthesisPipeline

pytestmark = pytest.mark.adaptive

#: The pinned convergence scenario (see module docstring).
CORE = "ibex-dcache"
ATTACKER = "cache-state"
TEMPLATE = "riscv-mem"
SEED = 7
FIXED_BUDGET = 1200


def _fixed_contract():
    result = (
        SynthesisPipeline()
        .core(CORE)
        .attacker(ATTACKER)
        .template(TEMPLATE)
        .budget(FIXED_BUDGET, seed=SEED)
        .run()
    )
    return tuple(sorted(result.contract.atom_ids)), result


class TestConvergence:
    """The issue's acceptance criterion."""

    def test_coverage_strategy_matches_fixed_budget_with_fewer_cases(self):
        fixed_atoms, fixed = _fixed_contract()
        assert len(fixed.dataset) == FIXED_BUDGET
        loop = AdaptiveLoop(
            core=CORE,
            template=TEMPLATE,
            attacker=ATTACKER,
            generator="coverage",
            rounds=12,
            batch=100,
            seed=SEED,
        )
        adaptive = loop.run()
        assert tuple(sorted(adaptive.contract.atom_ids)) == fixed_atoms
        # Measurably fewer: the loop stopped well before the fixed
        # budget (its own ceiling would have been 1200 as well).
        assert adaptive.total_cases <= FIXED_BUDGET - 300
        assert adaptive.stop_reason.startswith("contract stable")

    def test_random_strategy_converges_on_the_shared_stream(self):
        """`random` rounds are prefixes of the fixed corpus, so the
        stable contract equals the fixed-budget one by saturation."""
        fixed_atoms, _fixed = _fixed_contract()
        adaptive = AdaptiveLoop(
            core=CORE,
            template=TEMPLATE,
            attacker=ATTACKER,
            generator="random",
            rounds=12,
            batch=100,
            seed=SEED,
        ).run()
        assert tuple(sorted(adaptive.contract.atom_ids)) == fixed_atoms
        assert adaptive.total_cases < FIXED_BUDGET


class TestLegacyEquivalence:
    def test_one_random_round_reproduces_the_legacy_pipeline(self):
        """generator="random" with one round is byte-identical to the
        classic fixed-budget pipeline."""
        budget = 150
        legacy = (
            SynthesisPipeline()
            .core(CORE)
            .attacker(ATTACKER)
            .template(TEMPLATE)
            .budget(budget, seed=SEED)
            .run()
        )
        adaptive = (
            SynthesisPipeline()
            .core(CORE)
            .attacker(ATTACKER)
            .template(TEMPLATE)
            .budget(budget, seed=SEED)
            .adaptive(generator="random", rounds=1, batch=budget)
            .run()
        )
        assert len(adaptive.dataset) == len(legacy.dataset) == budget
        for a, b in zip(adaptive.dataset, legacy.dataset):
            assert a.test_id == b.test_id
            assert a.attacker_distinguishable == b.attacker_distinguishable
            assert a.distinguishing_atom_ids == b.distinguishing_atom_ids
            assert a.targeted_atom_id == b.targeted_atom_id
        assert adaptive.contract.atom_ids == legacy.contract.atom_ids
        assert adaptive.generator_name == "random"
        assert adaptive.adaptive is not None and legacy.adaptive is None

    def test_executor_rounds_match_in_process_rounds(self):
        """Round evaluation through the serial executor backend equals
        the in-process path (workers rebuild the strategy by name)."""
        kwargs = dict(
            core=CORE,
            template=TEMPLATE,
            attacker=ATTACKER,
            generator="coverage",
            rounds=3,
            batch=60,
            stop="budget",
            seed=3,
        )
        in_process = AdaptiveLoop(**kwargs).run()
        sharded = AdaptiveLoop(executor="serial", shard_size=25, **kwargs).run()
        assert len(sharded.dataset) == len(in_process.dataset)
        for a, b in zip(sharded.dataset, in_process.dataset):
            assert a.test_id == b.test_id
            assert a.distinguishing_atom_ids == b.distinguishing_atom_ids
        assert (
            sharded.synthesis.contract.atom_ids
            == in_process.synthesis.contract.atom_ids
        )


def _rows(dataset):
    """A dataset's rows in canonical form (its header names the core
    as configured, which differs between a name and an instance)."""
    return [result.to_dict() for result in dataset]


class TestOneOrchestrationPath:
    """Without an executor, rounds run on the serial shard loop."""

    def test_in_process_round_is_one_batch(self, monkeypatch):
        from repro.evaluation.evaluator import TestCaseEvaluator

        batches = []
        evaluate_batch = TestCaseEvaluator.evaluate_batch

        def counted(evaluator, test_cases):
            batches.append(len(test_cases))
            return evaluate_batch(evaluator, test_cases)

        monkeypatch.setattr(TestCaseEvaluator, "evaluate_batch", counted)
        result = AdaptiveLoop(
            core=CORE,
            template=TEMPLATE,
            attacker=ATTACKER,
            generator="coverage",
            rounds=3,
            batch=70,
            stop="budget",
            seed=SEED,
        ).run()
        assert result.rounds_run == 3
        assert batches == [70, 70, 70]

    def test_instance_configured_core_matches_the_named_core(self):
        from repro.uarch.ibex import IbexConfig, IbexCore

        def run(core):
            return AdaptiveLoop(
                core=core,
                template=TEMPLATE,
                attacker=ATTACKER,
                generator="coverage",
                rounds=3,
                batch=60,
                stop="budget",
                seed=SEED,
            ).run()

        named = run(CORE)
        instance = run(IbexCore(IbexConfig(dcache=True)))
        assert _rows(instance.dataset) == _rows(named.dataset)
        assert instance.contract.atom_ids == named.contract.atom_ids


class TestStoppingRules:
    def _state(self, contracts, covered=frozenset(), targetable=frozenset()):
        return AdaptiveState(
            round_index=len(contracts) - 1,
            contracts=tuple(contracts),
            covered_atom_ids=frozenset(covered),
            targetable_atom_ids=frozenset(targetable),
            cumulative_cases=100,
            max_cases=1000,
        )

    def test_contract_stable_needs_patience_plus_one_rounds(self):
        rule = ContractStableRule(patience=2)
        assert rule.check(self._state([(1,), (1,)])) is None
        assert rule.check(self._state([(2,), (1,), (1,)])) is None
        assert rule.check(self._state([(1,), (1,), (1,)])) is not None

    def test_full_coverage_fires_only_when_complete(self):
        rule = FullCoverageRule()
        assert rule.check(self._state([()], covered={1}, targetable={1, 2})) is None
        assert (
            rule.check(self._state([()], covered={1, 2, 3}, targetable={1, 2}))
            is not None
        )

    def test_budget_rule_never_stops(self):
        assert BudgetRule().check(self._state([(1,), (1,), (1,)])) is None

    def test_registry_resolution(self):
        assert set(STOPPING_REGISTRY.names()) == {
            "budget",
            "contract-stable",
            "full-coverage",
        }
        rules = resolve_stopping_rules(["contract-stable", BudgetRule()])
        assert isinstance(rules[0], ContractStableRule)
        assert isinstance(rules[1], BudgetRule)
        assert resolve_stopping_rules(None) == ()
        with pytest.raises(TypeError):
            resolve_stopping_rules([42])

    def test_budget_rule_exhausts_all_rounds(self):
        result = AdaptiveLoop(
            core=CORE,
            template=TEMPLATE,
            attacker=ATTACKER,
            generator="coverage",
            rounds=4,
            batch=40,
            stop="budget",
            seed=SEED,
        ).run()
        assert result.rounds_run == 4
        assert result.stop_reason == "budget-exhausted"

    def test_full_coverage_stops_the_pinned_scenario(self):
        """Every riscv-mem atom is distinguished within a few rounds."""
        result = AdaptiveLoop(
            core=CORE,
            template=TEMPLATE,
            attacker=ATTACKER,
            generator="coverage",
            rounds=12,
            batch=100,
            stop="full-coverage",
            seed=SEED,
        ).run()
        assert result.stop_reason.startswith("full atom coverage")
        assert result.records[-1].atom_coverage == 1.0
        assert result.rounds_run < 12


class TestRoundRecords:
    def test_records_are_cumulative_and_monotonic(self):
        result = AdaptiveLoop(
            core=CORE,
            template=TEMPLATE,
            attacker=ATTACKER,
            generator="coverage",
            rounds=4,
            batch=50,
            stop="budget",
            seed=SEED,
        ).run()
        cumulative = [record.cumulative_cases for record in result.records]
        assert cumulative == [50, 100, 150, 200]
        coverage = [record.atom_coverage for record in result.records]
        assert coverage == sorted(coverage)  # coverage never shrinks
        assert [record.start_id for record in result.records] == [0, 50, 100, 150]
        assert result.records[-1].stop_reason == "budget-exhausted"

    def test_curves_track_records(self):
        result = AdaptiveLoop(
            core=CORE,
            template=TEMPLATE,
            attacker=ATTACKER,
            generator="coverage",
            rounds=3,
            batch=40,
            stop="budget",
            seed=SEED,
        ).run()
        by_label = {series.label: series for series in result.curves()}
        assert set(by_label) == {
            "atom-coverage",
            "contract-atoms",
            "false-positives",
        }
        assert by_label["atom-coverage"].xs == [40.0, 80.0, 120.0]
        assert by_label["contract-atoms"].ys[-1] == float(
            len(result.contract.atom_ids)
        )
