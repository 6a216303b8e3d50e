"""Evaluation results: the data contract between evaluation and synthesis.

Synthesis never looks at programs or traces — only at, per test case,
the attacker verdict and the set of distinguishing atoms.  Datasets
serialize to JSON so that expensive evaluations can be cached and
re-used across template restrictions and synthesis-set sweeps, exactly
as the paper reuses its 2M-test-case evaluation across Fig. 2/3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence


@dataclass(frozen=True)
class TestCaseResult:
    """The evaluation outcome of one test case."""

    __test__ = False  # not a pytest test class despite the name

    test_id: int
    attacker_distinguishable: bool
    distinguishing_atom_ids: FrozenSet[int]
    targeted_atom_id: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "test_id": self.test_id,
            "attacker_distinguishable": self.attacker_distinguishable,
            "distinguishing_atom_ids": sorted(self.distinguishing_atom_ids),
            "targeted_atom_id": self.targeted_atom_id,
        }

    @staticmethod
    def from_dict(data: dict) -> "TestCaseResult":
        return TestCaseResult(
            test_id=data["test_id"],
            attacker_distinguishable=data["attacker_distinguishable"],
            distinguishing_atom_ids=frozenset(data["distinguishing_atom_ids"]),
            targeted_atom_id=data.get("targeted_atom_id"),
        )

    def to_row(self) -> list:
        """The JSON row the JSONL checkpoints store (see :meth:`from_row`):
        ``[test_id, distinguishable, sorted atom ids, targeted]``."""
        return [
            self.test_id,
            self.attacker_distinguishable,
            sorted(self.distinguishing_atom_ids),
            self.targeted_atom_id,
        ]

    @staticmethod
    def from_row(row: Sequence) -> "TestCaseResult":
        return TestCaseResult(row[0], bool(row[1]), frozenset(row[2]), row[3])


class EvaluationDataset:
    """An ordered collection of test-case results."""

    def __init__(
        self,
        results: Sequence[TestCaseResult],
        core_name: str = "",
        template_name: str = "",
        attacker_name: str = "",
    ):
        self.results: List[TestCaseResult] = list(results)
        self.core_name = core_name
        self.template_name = template_name
        self.attacker_name = attacker_name

    # -- collection protocol ------------------------------------------

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[TestCaseResult]:
        return iter(self.results)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EvaluationDataset(
                self.results[index],
                core_name=self.core_name,
                template_name=self.template_name,
                attacker_name=self.attacker_name,
            )
        return self.results[index]

    def prefix(self, count: int) -> "EvaluationDataset":
        """The first ``count`` results — the synthesis-set sweeps of
        Fig. 2 and Fig. 3 synthesize from growing prefixes."""
        return self[:count]

    def extend(self, results: Iterable[TestCaseResult]) -> None:
        self.results.extend(results)

    # -- views ---------------------------------------------------------

    @property
    def distinguishable(self) -> List[TestCaseResult]:
        """``Dist``: attacker-distinguishable test cases."""
        return [result for result in self.results if result.attacker_distinguishable]

    @property
    def indistinguishable(self) -> List[TestCaseResult]:
        """``Indist = TC \\ Dist``."""
        return [
            result for result in self.results if not result.attacker_distinguishable
        ]

    # -- serialization --------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "core": self.core_name,
                "template": self.template_name,
                "attacker": self.attacker_name,
                "results": [result.to_dict() for result in self.results],
            }
        )

    @staticmethod
    def from_json(text: str) -> "EvaluationDataset":
        data = json.loads(text)
        return EvaluationDataset(
            [TestCaseResult.from_dict(entry) for entry in data["results"]],
            core_name=data.get("core", ""),
            template_name=data.get("template", ""),
            attacker_name=data.get("attacker", ""),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as stream:
            stream.write(self.to_json())

    @staticmethod
    def load(path: str) -> "EvaluationDataset":
        with open(path) as stream:
            return EvaluationDataset.from_json(stream.read())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "EvaluationDataset(%d cases, %d distinguishable, core=%s)" % (
            len(self.results),
            len(self.distinguishable),
            self.core_name or "?",
        )
