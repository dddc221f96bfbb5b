import random
from typing import Callable, Optional, Sequence

import pytest

from censusflow.domain import PageTranscript, PersonRecord
from censusflow.label_codec import DEFAULT_PROFILE, SyntheticProfile, sample_record
from censusflow.pipeline import MockClassifier, MockRecognizer, NoiseSpec, WorkerSet

# Four-row golden page: two households of two members each, heads first.
GOLDEN_LABEL = (
    "<s-h>Gendre <f>Pierre <o>cultivateur <l>chef <e>patron <a>75 <n>française\n"
    "<s>Paraud <f>Marie <o>néant <l>épouse <e>néant <a>66 <n>idem\n"
    "<s-h>Martin <f>Pierre <o>métayer <l>chef <e>patron <a>69 <n>idem\n"
    "<s>Joyoz <f>Suzanne <o>néant <l>mère <e>néant <a>72 <n>idem"
)


def golden_page() -> PageTranscript:
    return PageTranscript(
        (
            PersonRecord.from_names(
                surname_head="Gendre", firstname="Pierre", occupation="cultivateur",
                link="chef", employer="patron", age="75", nationality="française",
            ),
            PersonRecord.from_names(
                surname="Paraud", firstname="Marie", occupation="néant",
                link="épouse", employer="néant", age="66", nationality="idem",
            ),
            PersonRecord.from_names(
                surname_head="Martin", firstname="Pierre", occupation="métayer",
                link="chef", employer="patron", age="69", nationality="idem",
            ),
            PersonRecord.from_names(
                surname="Joyoz", firstname="Suzanne", occupation="néant",
                link="mère", employer="néant", age="72", nationality="idem",
            ),
        ),
        page_id="golden",
        page_index_in_register=0,
    )


def generate_synthetic_page(
    seed: int,
    profile: SyntheticProfile = DEFAULT_PROFILE,
    *,
    page_id: Optional[str] = None,
    page_index: int = 0,
) -> PageTranscript:
    """A deterministic synthetic list page.

    The first record is always a head; each following record starts a new
    household with probability 1/household_size_mean. Output is identical
    for identical (seed, profile).
    """
    rng = random.Random(seed)
    n_rows = rng.randint(profile.min_rows, profile.max_rows)
    head_p = 1.0 / profile.household_size_mean
    records = []
    for row in range(n_rows):
        head = row == 0 or rng.random() < head_p
        records.append(sample_record(rng, profile, head))
    return PageTranscript(
        tuple(records),
        page_id=page_id if page_id is not None else f"synthetic-{seed}",
        page_index_in_register=page_index,
    )


def mock_worker_set(seed: int = 0, noise: NoiseSpec = NoiseSpec()) -> WorkerSet:
    """The mock classifier and a mock recognizer with ``seed`` and ``noise``."""
    return WorkerSet(classifier=MockClassifier(), recognizer=MockRecognizer(seed, noise))


class SeededExecutor:
    """``LocalExecutor``'s contract on the calling thread: ``run`` calls
    ``fn`` on the items in a permutation drawn from ``seed`` and returns
    the results in item order. ``calls`` records the items in call order."""

    isolated_compute = True

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.calls: list = []

    def run(self, stage: str, items: Sequence, fn: Callable) -> list:
        order = list(range(len(items)))
        self.rng.shuffle(order)
        results = [None] * len(items)
        for i in order:
            self.calls.append(items[i])
            results[i] = fn(items[i])
        return results

    def shutdown(self) -> None:
        pass


@pytest.fixture
def golden():
    return golden_page()
