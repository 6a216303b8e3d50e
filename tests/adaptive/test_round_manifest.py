"""Round-manifest checkpointing: kill/resume, extension, key binding."""

import json
import os

import pytest

from repro.adaptive import AdaptiveKeyError, AdaptiveLoop, AdaptiveManifest
from repro.pipeline.config import AdaptivePlan, PipelineConfig

pytestmark = pytest.mark.adaptive

CORE = "ibex-dcache"
ATTACKER = "cache-state"
TEMPLATE = "riscv-mem"
SEED = 5


def _loop(path, rounds=4, batch=40, stop="budget", progress=None, **axes):
    settings = dict(
        core=CORE, template=TEMPLATE, attacker=ATTACKER, generator="coverage", seed=SEED
    )
    settings.update(axes)
    config = PipelineConfig(adaptive=AdaptivePlan(rounds, batch, stop), **settings)
    return AdaptiveLoop(config, manifest_path=str(path), progress=progress)


class TestResume:
    def test_full_resume_replays_every_round(self, tmp_path):
        path = tmp_path / "rounds.jsonl"
        first = _loop(path).run()
        second = _loop(path).run()
        assert second.resumed_rounds == second.rounds_run == first.rounds_run
        assert [r.contract_atom_ids for r in second.records] == [
            r.contract_atom_ids for r in first.records
        ]
        assert second.contract.atom_ids == first.contract.atom_ids
        assert len(second.dataset) == len(first.dataset)

    def test_round_budget_extension_resumes(self, tmp_path):
        """More rounds = the shard-manifest budget-extension rule at
        round granularity: the stored prefix is reused, only the new
        rounds evaluate."""
        path = tmp_path / "rounds.jsonl"
        short = _loop(path, rounds=2).run()
        assert short.stop_reason == "budget-exhausted"
        extended = _loop(path, rounds=4).run()
        assert extended.resumed_rounds == 2
        assert extended.rounds_run == 4
        assert [r.cumulative_cases for r in extended.records] == [40, 80, 120, 160]
        # The resumed prefix matches the short run byte for byte.
        assert [r.contract_atom_ids for r in extended.records[:2]] == [
            r.contract_atom_ids for r in short.records
        ]

    def test_interrupted_loop_resumes_identically(self, tmp_path):
        """A loop killed mid-run (simulated by a smaller round budget)
        continues to the uninterrupted result."""
        reference = _loop(tmp_path / "ref.jsonl").run()
        path = tmp_path / "rounds.jsonl"
        _loop(path, rounds=3).run()  # the "killed at 75%" run
        resumed = _loop(path).run()
        assert resumed.resumed_rounds == 3
        assert [r.contract_atom_ids for r in resumed.records] == [
            r.contract_atom_ids for r in reference.records
        ]
        assert resumed.contract.atom_ids == reference.contract.atom_ids

    def test_killed_mid_run_resumes_byte_identically(self, tmp_path):
        """The SIGKILL-grade scenario the shard manifest pins, at round
        granularity: a loop dying right after round 1's append keeps
        rounds 0-1 (the append is flushed before the progress event),
        and the resumed run replays them and evaluates only the rest —
        to the uninterrupted contract."""
        reference = _loop(tmp_path / "ref.jsonl").run()
        path = tmp_path / "rounds.jsonl"

        class Killed(Exception):
            pass

        def kill_after_two(record):
            if record.round_index == 1:
                raise Killed()

        with pytest.raises(Killed):
            _loop(path, progress=kill_after_two).run()
        with open(path) as stream:
            lines = stream.read().splitlines()
        assert len(lines) == 3  # header + the two completed rounds

        resumed = _loop(path).run()
        assert resumed.resumed_rounds == 2
        assert resumed.rounds_run == reference.rounds_run
        assert [r.contract_atom_ids for r in resumed.records] == [
            r.contract_atom_ids for r in reference.records
        ]
        assert resumed.contract.atom_ids == reference.contract.atom_ids
        assert len(resumed.dataset) == len(reference.dataset)

    def test_resume_under_a_different_rule_keeps_going(self, tmp_path):
        """Convergence is re-decided by the resuming run's own rules: a
        verdict persisted under contract-stable must not halt a resumed
        run explicitly configured to exhaust its budget."""
        path = tmp_path / "rounds.jsonl"
        converged = _loop(
            path, rounds=12, batch=100, stop="contract-stable", seed=7
        ).run()
        assert converged.stop_reason.startswith("contract stable")
        swept = _loop(path, rounds=10, batch=100, stop="budget", seed=7).run()
        assert swept.resumed_rounds == converged.rounds_run
        assert swept.rounds_run == 10
        assert swept.stop_reason == "budget-exhausted"

    def test_early_stop_is_replayed_on_resume(self, tmp_path):
        path = tmp_path / "rounds.jsonl"
        first = _loop(path, rounds=12, batch=100, stop="contract-stable", seed=7).run()
        assert first.stop_reason.startswith("contract stable")
        second = _loop(path, rounds=12, batch=100, stop="contract-stable", seed=7).run()
        assert second.resumed_rounds == second.rounds_run == first.rounds_run
        assert second.stop_reason == first.stop_reason
        assert second.contract.atom_ids == first.contract.atom_ids


class TestKeyBinding:
    def test_different_seed_raises(self, tmp_path):
        path = tmp_path / "rounds.jsonl"
        _loop(path, rounds=1).run()
        with pytest.raises(AdaptiveKeyError):
            _loop(path, rounds=1, seed=SEED + 1).run()

    def test_different_generator_raises(self, tmp_path):
        path = tmp_path / "rounds.jsonl"
        _loop(path, rounds=1).run()
        with pytest.raises(AdaptiveKeyError):
            _loop(path, rounds=1, generator="mutate").run()

    def test_derived_manifest_paths_cover_every_identity_axis(self, tmp_path):
        """Regression: two configurations with different manifest keys
        must derive different file paths — colliding on one file makes
        the second run crash with a key mismatch instead of
        checkpointing separately."""
        from repro.pipeline import SynthesisPipeline

        def pipeline(**overrides):
            settings = dict(
                core="ibex-dcache",
                attacker="cache-state",
                template="riscv-mem",
                solver="scipy-milp",
                generator="coverage",
                restriction=None,
                fastpath=True,
            )
            settings.update(overrides)
            built = (
                SynthesisPipeline()
                .core(settings["core"])
                .attacker(settings["attacker"])
                .template(settings["template"])
                .solver(settings["solver"])
                .generator(settings["generator"])
                .fastpath(settings["fastpath"])
                .budget(80, seed=1)
                .adaptive(rounds=2, batch=40)
                .cache_dir(str(tmp_path))
                .resume()
            )
            if settings["restriction"]:
                built.restrict(settings["restriction"])
            return built

        base_path = pipeline().manifest_path()
        for overrides in (
            {"solver": "greedy"},
            {"restriction": "base"},
            {"fastpath": False},
            {"generator": "mutate"},
        ):
            assert pipeline(**overrides).manifest_path() != base_path

    def test_version_1_manifest_is_not_resumed(self, tmp_path):
        """Version-1 files store contracts of the solver's old tie-break;
        replaying them could reproduce a stale contract or stop reason."""
        path = tmp_path / "rounds.jsonl"
        _loop(path, rounds=1).run()
        with open(path) as stream:
            lines = stream.readlines()
        header = json.loads(lines[0])
        assert header["version"] == 2
        header["version"] = 1
        with open(path, "w") as stream:
            stream.writelines([json.dumps(header) + "\n"] + lines[1:])
        with pytest.raises(ValueError, match="not a version-2 adaptive-round"):
            _loop(path, rounds=1).run()

    def test_rounds_budget_is_not_part_of_the_key(self, tmp_path):
        path = tmp_path / "rounds.jsonl"
        loop_a = _loop(path, rounds=1)
        loop_b = _loop(path, rounds=9)
        assert loop_a.manifest_key() == loop_b.manifest_key()


class TestFileRobustness:
    def test_torn_final_line_is_discarded(self, tmp_path):
        path = tmp_path / "rounds.jsonl"
        _loop(path, rounds=2).run()
        with open(path) as stream:
            intact_lines = stream.readlines()
        with open(path, "a") as stream:
            stream.write('{"round": 2, "start_id"')  # killed mid-append
        resumed = _loop(path).run()
        assert resumed.resumed_rounds == 2
        with open(path) as stream:
            recovered = stream.readlines()
        assert recovered[: len(intact_lines)] == intact_lines

    def test_corruption_before_the_final_line_raises(self, tmp_path):
        """Only a torn *final* line is recoverable (killed mid-append);
        corruption anywhere else is damage that must not be papered
        over — mirroring the shard-manifest rule."""
        path = tmp_path / "rounds.jsonl"
        loop = _loop(path, rounds=3)
        loop.run()
        with open(path) as stream:
            lines = stream.readlines()
        lines[1] = '{"round": 0, "start_id"\n'  # corrupt a middle entry
        with open(path, "w") as stream:
            stream.writelines(lines)
        with pytest.raises(ValueError, match="not valid JSON"):
            AdaptiveManifest(str(path), loop.manifest_key())

    def test_append_lands_cleanly_after_torn_recovery(self, tmp_path):
        """Recovery must rewrite the torn bytes away: otherwise the
        resuming run's append would concatenate onto the partial line
        and permanently corrupt the manifest.  An extension across the
        recovery proves appends land on a clean boundary."""
        path = tmp_path / "rounds.jsonl"
        _loop(path, rounds=2).run()
        with open(path, "a") as stream:
            stream.write('{"round": 2, "start_id"')  # killed mid-append
        extended = _loop(path, rounds=4).run()
        assert extended.resumed_rounds == 2
        assert extended.rounds_run == 4
        with open(path) as stream:
            lines = stream.read().splitlines()
        assert len(lines) == 1 + 4
        for line in lines:
            json.loads(line)  # every line is intact JSON again

    def test_gap_invalidates_later_rounds(self, tmp_path):
        """Rounds are only reusable as a contiguous prefix: each round's
        generation depends on the state its predecessor left."""
        path = tmp_path / "rounds.jsonl"
        loop = _loop(path)
        loop.run()
        with open(path) as stream:
            lines = stream.readlines()
        entries = [json.loads(line) for line in lines[1:]]
        with open(path, "w") as stream:
            stream.write(lines[0])
            for entry in entries:
                if entry["round"] != 1:  # drop round 1, keep 0, 2, 3
                    stream.write(json.dumps(entry) + "\n")
        manifest = AdaptiveManifest(str(path), loop.manifest_key())
        stored = manifest.stored_rounds()
        assert [entry["round"] for entry in stored] == [0]

    def test_manifest_file_lines_are_rounds(self, tmp_path):
        path = tmp_path / "rounds.jsonl"
        result = _loop(path).run()
        with open(path) as stream:
            lines = stream.read().splitlines()
        header = json.loads(lines[0])
        assert header["manifest"] == "adaptive-rounds"
        assert len(lines) == 1 + result.rounds_run
        entry = json.loads(lines[1])
        assert set(entry) == {
            "round",
            "start_id",
            "rows",
            "state",
            "contract",
            "fps",
            "stop",
        }
        assert os.path.getsize(path) > 0
